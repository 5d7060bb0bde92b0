// pqe_perfbench: the repository benchmark. README.md in this directory says
// why each workload exists and which metric each layer should move.
//
//   pqe_perfbench --workload tree_cold|path_cold|serve_updates --seed N
//                 --seconds S --trace 0|1 [--spans_out FILE]
//
// --trace 0 times whole requests through the public entry points
// (PqeEngine::EvaluateRequest, serve::PqeService) and reports the end-to-end
// metrics. --trace 1 sends the same requests as their chain of public layer
// calls, records one span per call, and reports the per-layer metrics. The
// last line of stdout is the result object; earlier lines are the run stamp,
// route counts and per-query figures.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/path_pqe.h"
#include "core/pqe.h"
#include "core/projection.h"
#include "counting/count_nfa.h"
#include "counting/count_nfta.h"
#include "cq/parser.h"
#include "hypertree/decomposition.h"
#include "rpq/eval.h"
#include "rpq/regex.h"
#include "safeplan/safe_plan.h"
#include "serve/prepared_cache.h"
#include "serve/service.h"
#include "tools/fact_file.h"
#include "util/extfloat.h"
#include "util/rng.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace pqe {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// ---------------------------------------------------------------- inputs --
//
// Every instance has a fixed shape; the workload seed draws only the fact
// probabilities and the request seeds. Denominators lie in [5, 8], so every
// fact's §5.1 gadget has the same width (3) and the automaton a request
// counts over has the same size on every seed; numerators lie in [1, d-1],
// so no gadget branch is dead. Requests of one query therefore do
// comparable work on every seed, which keeps run-to-run spread low.

class FactWriter {
 public:
  explicit FactWriter(uint64_t seed) : rng_(seed) {}

  void Add(const std::string& atom) {
    const uint64_t den = 5 + rng_.NextBounded(4);
    const uint64_t num = 1 + rng_.NextBounded(den - 1);
    text_ += atom + " " + std::to_string(num) + "/" + std::to_string(den) +
             "\n";
  }
  const std::string& text() const { return text_; }

 private:
  Rng rng_;
  std::string text_;
};

std::string Node(const std::string& prefix, int layer, int index) {
  return prefix + std::to_string(layer) + "_" + std::to_string(index);
}

std::string Atom2(const std::string& rel, const std::string& a,
                  const std::string& b) {
  return rel + "(" + a + "," + b + ")";
}

// Caterpillar: a path P1..Pn over layers of `width` nodes with unary labels
// Li on the inner layers; `skip` thins the complete bipartite layers by a
// fixed pattern (0 keeps every edge). Acyclic, non-hierarchical: the tree
// route at decomposition width 1.
std::string AddCaterpillar(FactWriter* w, const std::string& p, int n,
                           int width, int skip) {
  for (int i = 1; i <= n; ++i) {
    for (int a = 0; a < width; ++a) {
      for (int b = 0; b < width; ++b) {
        if (skip > 0 && (a + b + i) % skip == 0) continue;
        w->Add(Atom2(p + "P" + std::to_string(i), Node(p, i - 1, a),
                     Node(p, i, b)));
      }
    }
  }
  for (int i = 2; i <= n; ++i) {
    for (int a = 0; a < width; ++a) {
      w->Add(p + "L" + std::to_string(i) + "(" + Node(p, i - 1, a) + ")");
    }
  }
  std::string q;
  for (int i = 1; i <= n; ++i) {
    if (i > 1) q += ", ";
    q += Atom2(p + "P" + std::to_string(i), "x" + std::to_string(i),
               "x" + std::to_string(i + 1));
    if (i >= 2) {
      q += ", " + p + "L" + std::to_string(i) + "(x" + std::to_string(i) +
           ")";
    }
  }
  return q;
}

// Snowflake: `arms` chains of `depth` binary atoms around x0; `hubs` hub
// constants, each with `fanout` first-level children, then single chains.
std::string AddSnowflake(FactWriter* w, const std::string& p, int arms,
                         int depth, int hubs, int fanout) {
  std::string q;
  for (int a = 1; a <= arms; ++a) {
    std::vector<std::string> level;
    for (int h = 0; h < hubs; ++h) {
      level.push_back(p + "hub" + std::to_string(h));
    }
    std::string prev = "x0";
    for (int d = 1; d <= depth; ++d) {
      const std::string rel =
          p + "S" + std::to_string(a) + "_" + std::to_string(d);
      const int fo = d == 1 ? fanout : 1;
      std::vector<std::string> next;
      for (size_t i = 0; i < level.size(); ++i) {
        for (int k = 0; k < fo; ++k) {
          const std::string child = p + "a" + std::to_string(a) + "d" +
                                    std::to_string(d) + "n" +
                                    std::to_string(i * fo + k);
          w->Add(Atom2(rel, level[i], child));
          next.push_back(child);
        }
      }
      level = std::move(next);
      const std::string var =
          "y" + std::to_string(a) + "_" + std::to_string(d);
      if (!q.empty()) q += ", ";
      q += Atom2(rel, prev, var);
      prev = var;
    }
  }
  return q;
}

// Triangle (cycle-3): hypertree width 2, so the width-2 decomposer runs.
// Each relation holds the pairs over `m` constants that the skip pattern
// keeps.
std::string AddTriangle(FactWriter* w, const std::string& p, int m,
                        int skip) {
  for (int r = 1; r <= 3; ++r) {
    for (int a = 0; a < m; ++a) {
      for (int b = 0; b < m; ++b) {
        if ((2 * a + b + r) % skip == 0) continue;
        w->Add(Atom2(p + "T" + std::to_string(r), p + "c" + std::to_string(a),
                     p + "c" + std::to_string(b)));
      }
    }
  }
  return p + "T1(x1,x2), " + p + "T2(x2,x3), " + p + "T3(x3,x1)";
}

// Layered graph for the path query E1..En; `skip` thins the complete
// bipartite layers by a fixed pattern (0 keeps every edge).
std::string AddLayeredPath(FactWriter* w, const std::string& p, int n,
                           int width, int skip) {
  std::string q;
  for (int i = 1; i <= n; ++i) {
    const std::string rel = p + "E" + std::to_string(i);
    for (int a = 0; a < width; ++a) {
      for (int b = 0; b < width; ++b) {
        if (skip > 0 && (a + 2 * b + i) % skip == 0) continue;
        w->Add(Atom2(rel, Node(p, i - 1, a), Node(p, i, b)));
      }
    }
    if (i > 1) q += ", ";
    q += Atom2(rel, "x" + std::to_string(i), "x" + std::to_string(i + 1));
  }
  return q;
}

// Edge-labelled knowledge graph over three labels (`labels[0..2]`): a
// layered DAG whose facts are in source-layer order, so every walk reads
// facts in increasing FactId order and the RPQ scan order exists.
void AddKg(FactWriter* w, const std::string& p, int layers, int width,
           int skip, const char* const (&labels)[3]) {
  for (int i = 0; i < layers; ++i) {
    for (int a = 0; a < width; ++a) {
      for (int b = 0; b < width; ++b) {
        if (skip > 0 && (a + 2 * b + i) % skip == 0) continue;
        w->Add(Atom2(labels[(i + a * b) % 3], Node(p, i, a),
                     Node(p, i + 1, b)));
      }
    }
  }
}

constexpr const char* kAbc[3] = {"a", "b", "c"};
constexpr const char* kDef[3] = {"d", "e", "f"};

enum class Route { kTreeFpras, kStringFpras, kPreparedRead };

const char* RouteName(Route r) {
  switch (r) {
    case Route::kTreeFpras:
      return "tree_fpras";
    case Route::kStringFpras:
      return "string_fpras";
    case Route::kPreparedRead:
      return "prepared_read";
  }
  return "unknown";
}

struct QuerySpec {
  std::string name;
  std::string text;  // CQ text, or a regex when `rpq`
  bool rpq = false;
  Route route = Route::kTreeFpras;  // the route its requests must take
};

struct DatasetSpec {
  std::string facts;
  std::vector<QuerySpec> queries;
};

struct WorkloadSpec {
  std::vector<DatasetSpec> datasets;
  bool served = false;  // serve_updates: one PqeService over datasets[0]
};

// Data-seed derivation tags; request seeds use others, so data and requests
// draw from independent streams of the one workload seed.
constexpr uint64_t kDataTag = 0xda7a;
constexpr uint64_t kReadTag = 0x4ead;
constexpr uint64_t kWriteTag = 0x3417e;

DatasetSpec OneQuery(FactWriter* w, const std::string& name,
                     const std::string& text, bool rpq, Route route) {
  DatasetSpec d;
  d.facts = w->text();
  d.queries.push_back(QuerySpec{name, text, rpq, route});
  return d;
}

// Sizes are chosen so that every request of a workload does comparable work
// (150-350 ms at the default ε on a shared 4-vCPU x86-64 VM at 2.0 GHz): a
// latency quantile must not land on the boundary between cheap and
// expensive request groups.
WorkloadSpec MakeWorkload(const std::string& name, uint64_t seed) {
  WorkloadSpec spec;
  uint64_t data_index = 0;
  auto writer = [&] {
    return FactWriter(Rng::DeriveSeed(seed ^ kDataTag, data_index++));
  };
  if (name == "tree_cold") {
    {
      FactWriter w = writer();
      const std::string q = AddCaterpillar(&w, "", 4, 2, 4);
      spec.datasets.push_back(
          OneQuery(&w, "caterpillar4", q, false, Route::kTreeFpras));
    }
    {
      FactWriter w = writer();
      const std::string q = AddSnowflake(&w, "", 2, 3, 1, 3);
      spec.datasets.push_back(
          OneQuery(&w, "snowflake2x3", q, false, Route::kTreeFpras));
    }
    {
      FactWriter w = writer();
      const std::string q = AddTriangle(&w, "", 3, 3);
      spec.datasets.push_back(
          OneQuery(&w, "triangle", q, false, Route::kTreeFpras));
    }
  } else if (name == "path_cold") {
    {
      FactWriter w = writer();
      const std::string q = AddLayeredPath(&w, "", 5, 3, 2);
      spec.datasets.push_back(
          OneQuery(&w, "path5", q, false, Route::kStringFpras));
    }
    {
      FactWriter w = writer();
      const std::string q = AddLayeredPath(&w, "", 3, 3, 3);
      spec.datasets.push_back(
          OneQuery(&w, "path3", q, false, Route::kStringFpras));
    }
    {
      // Concatenation of distinct labels: lowers onto the path route.
      FactWriter w = writer();
      AddKg(&w, "n", 4, 3, 3, kAbc);
      spec.datasets.push_back(
          OneQuery(&w, "rpq_concat", "a/b/c", true, Route::kStringFpras));
    }
    {
      // Alternation and star: the product construction.
      FactWriter w = writer();
      AddKg(&w, "n", 5, 3, 2, kAbc);
      spec.datasets.push_back(OneQuery(&w, "rpq_star", "(a|b)/c*/a", true,
                                       Route::kStringFpras));
    }
    {
      // Inverse label: a 2RPQ through the product construction.
      FactWriter w = writer();
      AddKg(&w, "n", 4, 4, 3, kAbc);
      spec.datasets.push_back(
          OneQuery(&w, "rpq_inverse", "a/b/^c", true, Route::kStringFpras));
    }
  } else if (name == "serve_updates") {
    // One shared database holding every query's relations; the service
    // keeps all five queries resident on both routes.
    FactWriter w = writer();
    DatasetSpec d;
    d.queries.push_back(QuerySpec{"snowflake2x3",
                                  AddSnowflake(&w, "s", 2, 3, 1, 3), false,
                                  Route::kPreparedRead});
    d.queries.push_back(QuerySpec{"triangle", AddTriangle(&w, "t", 3, 3),
                                  false, Route::kPreparedRead});
    d.queries.push_back(QuerySpec{"path5",
                                  AddLayeredPath(&w, "p", 5, 3, 2), false,
                                  Route::kPreparedRead});
    // Two knowledge graphs with their own labels, sized as in path_cold.
    AddKg(&w, "n", 4, 3, 3, kAbc);
    d.queries.push_back(
        QuerySpec{"rpq_concat", "a/b/c", true, Route::kPreparedRead});
    AddKg(&w, "m", 5, 3, 2, kDef);
    d.queries.push_back(
        QuerySpec{"rpq_star", "(d|e)/f*/d", true, Route::kPreparedRead});
    d.facts = w.text();
    spec.datasets.push_back(std::move(d));
    spec.served = true;
  }
  return spec;
}

// ----------------------------------------------------------------- setup --

struct LoadedQuery {
  const QuerySpec* spec = nullptr;
  size_t dataset = 0;
  std::optional<ConjunctiveQuery> cq;
  std::optional<rpq::RpqQuery> rpq;
};

struct Loaded {
  std::vector<ProbabilisticDatabase> pdbs;
  std::vector<LoadedQuery> queries;
};

Result<Loaded> Load(const WorkloadSpec& spec) {
  Loaded out;
  out.pdbs.reserve(spec.datasets.size());
  for (size_t d = 0; d < spec.datasets.size(); ++d) {
    PQE_ASSIGN_OR_RETURN(ProbabilisticDatabase pdb,
                         ParseFactText(spec.datasets[d].facts));
    out.pdbs.push_back(std::move(pdb));
    for (const QuerySpec& qs : spec.datasets[d].queries) {
      LoadedQuery lq;
      lq.spec = &qs;
      lq.dataset = d;
      if (qs.rpq) {
        PQE_ASSIGN_OR_RETURN(rpq::RpqQuery r, rpq::RpqQuery::Parse(qs.text));
        lq.rpq.emplace(std::move(r));
      } else {
        PQE_ASSIGN_OR_RETURN(
            ConjunctiveQuery q,
            ParseQuery(out.pdbs.back().database().schema(), qs.text));
        lq.cq.emplace(std::move(q));
      }
      out.queries.push_back(std::move(lq));
    }
  }
  return out;
}

EvalRequest MakeRequest(const Loaded& in, size_t q, uint64_t seed) {
  const LoadedQuery& lq = in.queries[q];
  const ProbabilisticDatabase& pdb = in.pdbs[lq.dataset];
  EvalRequest r = lq.rpq.has_value() ? EvalRequest::ForRpq(*lq.rpq, pdb)
                                     : EvalRequest::ForQuery(*lq.cq, pdb);
  r.seed = seed;
  return r;
}

// Every knob left at the engine default (kAuto, ε = 0.2, 3 repetitions,
// kExact kernels) except the thread count, which is pinned so that
// $PQE_THREADS cannot change a run.
PqeEngine::Options EngineOptions() {
  PqeEngine::Options o;
  o.num_threads = 1;
  return o;
}

// The default cache capacities hold the whole working set; set-up checks
// that every query stayed resident.
serve::PqeService::Options ServiceOptions() {
  serve::PqeService::Options o;
  o.engine = EngineOptions();
  o.num_threads = 1;
  return o;
}

// The engine's and PreparedQuery's route choice for a CQ on the FPRAS.
bool OnPathRoute(const ConjunctiveQuery& q) {
  return q.IsPathQuery() && q.IsSelfJoinFree();
}

// The exact oracle: the lineage route, run outside every timed phase.
Result<double> ExactProbability(const PqeEngine& engine, const Loaded& in,
                                size_t q) {
  EvalRequest r = MakeRequest(in, q, 0);
  r.method = PqeMethod::kExactLineage;
  EvalResponse resp = engine.EvaluateRequest(r);
  if (!resp.status.ok()) return resp.status;
  if (!resp.answer.is_exact) return Status::Internal("oracle not exact");
  return resp.answer.probability;
}

// Facts (original ids) over the relations a query reads; writes pick from
// these so that every write reaches every resident query.
std::vector<FactId> QueryFacts(const Loaded& in, size_t q) {
  const LoadedQuery& lq = in.queries[q];
  const Database& db = in.pdbs[lq.dataset].database();
  std::vector<RelationId> rels;
  if (lq.rpq.has_value()) {
    for (const std::string& label : lq.rpq->Labels()) {
      auto rel = db.schema().FindRelation(label);
      if (rel.ok()) rels.push_back(*rel);
    }
  } else {
    for (size_t i = 0; i < lq.cq->NumAtoms(); ++i) {
      rels.push_back(lq.cq->atom(i).relation);
    }
  }
  std::vector<FactId> out;
  for (RelationId r : rels) {
    const auto& facts = db.FactsOf(r);
    out.insert(out.end(), facts.begin(), facts.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ------------------------------------------------------------ run record --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

// Everything one run measured; the metric printer reads only this.
struct RunRecord {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few, printed before the result
  std::vector<double> setup_s;
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<double> delta_write_ms;
  std::vector<double> full_write_ms;
  double timed_ms = 0;  // wall time of the timed operations
  uint64_t answers = 0;
  uint64_t eps_checked = 0;
  uint64_t eps_hits = 0;
  uint64_t memcmp_checked = 0;
  std::map<std::string, uint64_t> routes;
  std::map<std::string, std::vector<double>> per_query_ms;

  void Fail(std::string what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(what));
  }
};

// ------------------------------------------------------------ the checks --

// Route guard: a timed answer must come from the route its workload names,
// over a non-trivial automaton (k > 0 and at least one live stratum).
std::string CheckRoute(const PqeAnswer& a, Route route) {
  if (a.method_used != PqeMethod::kFpras) {
    return std::string("method ") + PqeMethodToString(a.method_used);
  }
  if (!a.automaton.has_value() || !a.count_stats.has_value()) {
    return "answer carries no automaton or counter statistics";
  }
  if (a.automaton->tree_size == 0 || a.count_stats->strata_live == 0) {
    return "trivial automaton (k = 0 or no live strata)";
  }
  const bool tree = a.automaton->decomposition_width > 0;
  if (route == Route::kTreeFpras && !tree) return "string route, want tree";
  if (route == Route::kStringFpras && tree) return "tree route, want string";
  if (!std::isfinite(a.probability) || a.probability < 0 ||
      a.probability > 1) {
    return "probability outside [0, 1]";
  }
  return "";
}

bool WithinEps(double estimate, double exact, double eps) {
  return estimate >= (1 - eps) * exact && estimate <= (1 + eps) * exact;
}

// ------------------------------------------------------- per-layer tracing --

// Spans of set-up calls carry this operation index; they are not part of
// any request, so layers.coverage leaves them out.
constexpr uint32_t kSetupOp = UINT32_MAX;

// One span per public call made by the traced run, kept in memory and
// written out when the run ends.
struct Span {
  uint32_t op = 0;       // operation index (request or write)
  const char* name = ""; // layer call, or "request"/"write" for the root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct LayerTotals {
  double ms = 0;
  uint64_t calls = 0;
};

struct CountTotals {
  uint64_t runs = 0;
  CountStats sum;
  void Add(const CountStats& s) {
    ++runs;
    sum.strata_total += s.strata_total;
    sum.strata_live += s.strata_live;
    sum.pool_entries += s.pool_entries;
    sum.attempts += s.attempts;
    sum.accepted += s.accepted;
    sum.forced_samples += s.forced_samples;
    sum.membership_checks += s.membership_checks;
    sum.runstates_memo_hits += s.runstates_memo_hits;
    sum.runstates_memo_misses += s.runstates_memo_misses;
  }
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  // Times `fn` as one call of layer `name` inside operation `op`.
  template <typename Fn>
  auto Call(uint32_t op, const char* name, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    auto result = fn();
    Record(op, name, start, Clock::now());
    return result;
  }

  void Record(uint32_t op, const char* name, Clock::time_point start,
              Clock::time_point end) {
    spans_.push_back(Span{op, name, Ns(start), Ns(end)});
    if (std::strcmp(name, "request") == 0 || std::strcmp(name, "write") == 0) {
      root_ms_ += MsBetween(start, end);
    } else {
      LayerTotals& t = layers_[name];
      t.ms += MsBetween(start, end);
      ++t.calls;
      if (op != kSetupOp) layer_ms_ += MsBetween(start, end);
    }
  }

  // Adds time the program measured itself inside one of our calls (the
  // PreparedQuery::EvalBreakdown stages); not part of the coverage sum.
  void AddInner(const char* name, double ms) {
    LayerTotals& t = inner_[name];
    t.ms += ms;
    ++t.calls;
  }

  double MeanMs(const std::string& name) const {
    for (const auto* m : {&layers_, &inner_}) {
      auto it = m->find(name);
      if (it != m->end() && it->second.calls > 0) {
        return it->second.ms / static_cast<double>(it->second.calls);
      }
    }
    return 0.0;
  }
  double Coverage() const { return root_ms_ > 0 ? layer_ms_ / root_ms_ : 0; }

  bool WriteSpans(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (const Span& s : spans_) {
      out << "{\"op\":" << s.op << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::map<std::string, LayerTotals> layers_;
  std::map<std::string, LayerTotals> inner_;
  double root_ms_ = 0;
  double layer_ms_ = 0;
};

// Per-layer counters beside the timings.
struct LayerCounts {
  CountTotals counting;
  uint64_t bound_runs = 0;
  double bound_states = 0;
  double bound_transitions = 0;
  double word_size = 0;
  uint64_t patched_slots = 0;
  uint64_t delta_rebinds = 0;
  uint64_t full_rebinds = 0;
  uint64_t reads = 0;
  uint64_t bind_reused = 0;
  uint64_t memo_hits = 0;
  uint64_t parity_checked = 0;
  double parity_chain_ms = 0;
  double parity_reference_ms = 0;
  serve::PreparedCache::Stats cache;

  void AddBound(size_t states, size_t transitions, size_t k) {
    ++bound_runs;
    bound_states += static_cast<double>(states);
    bound_transitions += static_cast<double>(transitions);
    word_size += static_cast<double>(k);
  }
};

// ----------------------------------------------------------- the workloads --

// One request in this many is also sent through the public entry point by
// the traced run, to check bit parity and to measure the tracing overhead.
constexpr size_t kParityEvery = 16;

// The answer arithmetic shared by PqeEstimate, PathPqeEstimate and
// PreparedQuery::EvaluateFpras: Pr = d⁻¹ · |L_k|, projected into [0, 1].
double ProbabilityFromCount(const ExtFloat& count, const BigUint& den) {
  return std::min(std::exp2(count.Log2() - ExtFloat::FromBigUint(den).Log2()),
                  1.0);
}

// Loads the workload once and records the time as one set-up sample.
Result<Loaded> TimedLoad(const WorkloadSpec& spec, RunRecord* rec) {
  const Clock::time_point t0 = Clock::now();
  PQE_ASSIGN_OR_RETURN(Loaded in, Load(spec));
  rec->setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  return in;
}

// Books one answer that passed every check. `counted` is false for
// answer-memo hits, whose counter figures belong to an earlier read.
void RecordAnswer(const std::string& label, Route route, const PqeAnswer& a,
                  double ms, double exact, bool counted, RunRecord* rec,
                  LayerCounts* lc) {
  ++rec->answers;
  ++rec->routes[RouteName(route)];
  rec->read_ms.push_back(ms);
  rec->per_query_ms[label].push_back(ms);
  ++rec->eps_checked;
  if (WithinEps(a.probability, exact, EngineOptions().epsilon)) {
    ++rec->eps_hits;
  }
  if (lc != nullptr && counted) {
    lc->counting.Add(*a.count_stats);
    lc->AddBound(a.automaton->states, a.automaton->transitions,
                 a.automaton->tree_size);
  }
}

// The string route's tail, shared by path CQs and RPQs, as layer calls.
Result<PqeAnswer> TracedPathTail(const PathPqeSkeleton& sk,
                                 const ProbabilisticDatabase& pdb,
                                 const EstimatorConfig& cfg, uint32_t op,
                                 Tracer* t) {
  PQE_ASSIGN_OR_RETURN(std::vector<Probability> probs,
                       t->Call(op, "core.project", [&] {
                         return ProjectedFactProbabilities(sk.original_fact,
                                                           pdb);
                       }));
  PQE_ASSIGN_OR_RETURN(BoundPathNfa m, t->Call(op, "core.bind", [&] {
                         return BindPathPqeNfa(sk, probs);
                       }));
  PQE_ASSIGN_OR_RETURN(CountEstimate count, t->Call(op, "counting.nfa", [&] {
                         return CountNfaStrings(m.nfa, m.word_length, cfg);
                       }));
  PqeAnswer a;
  a.method_used = PqeMethod::kFpras;
  a.probability = ProbabilityFromCount(count.value, m.denominator);
  a.count_stats = count.stats;
  a.automaton = PqeAnswer::AutomatonStats{m.nfa.NumStates(),
                                          m.nfa.NumTransitions(),
                                          m.word_length, 0};
  return a;
}

// PqeEngine::EvaluateRequest's kAuto → kFpras route for one request, as its
// chain of public layer calls.
Result<PqeAnswer> TracedColdRequest(const LoadedQuery& lq,
                                    const ProbabilisticDatabase& pdb,
                                    uint64_t seed, uint32_t op, Tracer* t) {
  PqeEngine::Options opts = EngineOptions();
  opts.seed = seed;
  if (pdb.NumFacts() <= opts.enumeration_threshold ||
      (lq.cq.has_value() && IsSafeQuery(*lq.cq))) {
    return Status::Internal("kAuto would not pick the FPRAS");
  }
  const EstimatorConfig cfg = PqeEngine::MakeEstimatorConfig(opts, nullptr);
  if (lq.rpq.has_value()) {
    PQE_ASSIGN_OR_RETURN(PathPqeSkeleton sk, t->Call(op, "rpq.compile", [&] {
                           return rpq::CompileRpqSkeleton(*lq.rpq,
                                                          pdb.database());
                         }));
    return TracedPathTail(sk, pdb, cfg, op, t);
  }
  if (OnPathRoute(*lq.cq)) {
    PQE_ASSIGN_OR_RETURN(PathPqeSkeleton sk, t->Call(op, "core.skeleton", [&] {
                           return BuildPathPqeSkeleton(*lq.cq, pdb.database());
                         }));
    return TracedPathTail(sk, pdb, cfg, op, t);
  }
  // The decomposition is timed on its own; BuildPqeSkeleton runs it again
  // inside, so hypertree.decompose_ms is also part of core.skeleton_ms.
  UrConstructionOptions ur;
  ur.max_width = opts.max_width;
  PQE_RETURN_IF_ERROR(t->Call(op, "hypertree.decompose", [&] {
                         return Decompose(*lq.cq, ur.max_width);
                       }).status());
  PQE_ASSIGN_OR_RETURN(PqeSkeleton sk, t->Call(op, "core.skeleton", [&] {
                         return BuildPqeSkeleton(*lq.cq, pdb.database(), ur);
                       }));
  PQE_ASSIGN_OR_RETURN(std::vector<Probability> probs,
                       t->Call(op, "core.project", [&] {
                         return ProjectedFactProbabilities(sk.original_fact,
                                                           pdb);
                       }));
  PQE_ASSIGN_OR_RETURN(BoundPqeAutomaton m, t->Call(op, "core.bind", [&] {
                         return BindPqeAutomaton(sk, probs);
                       }));
  PQE_ASSIGN_OR_RETURN(CountEstimate count, t->Call(op, "counting.nfta", [&] {
                         return CountNftaTrees(m.weighted, m.tree_size, cfg);
                       }));
  PqeAnswer a;
  a.method_used = PqeMethod::kFpras;
  a.probability = ProbabilityFromCount(count.value, m.denominator);
  a.count_stats = count.stats;
  a.automaton = PqeAnswer::AutomatonStats{
      m.weighted.NumStates(), m.weighted.NumTransitions(), m.tree_size,
      sk.ur.hd.Width()};
  return a;
}

// tree_cold / path_cold: one-shot engine requests, round-robin over the
// workload's queries, each with a fresh seed. Cold set-up takes about a
// tenth of a millisecond, so it is repeated after every request, outside
// the timed work: its median then samples the host over the whole run, as
// the latencies do, instead of over one burst at start-up.
Status RunCold(const Args& args, const WorkloadSpec& spec, RunRecord* rec,
               Tracer* tracer, LayerCounts* lc) {
  PQE_ASSIGN_OR_RETURN(Loaded in, TimedLoad(spec, rec));
  const PqeEngine engine(EngineOptions());
  const size_t nq = in.queries.size();

  std::vector<double> exact(nq);
  for (size_t q = 0; q < nq; ++q) {
    PQE_ASSIGN_OR_RETURN(exact[q], ExactProbability(engine, in, q));
    if (!(exact[q] > 0)) {
      return Status::Internal("instance " + in.queries[q].spec->name +
                              " has probability 0");
    }
  }

  const double budget_ms = args.seconds * 1000.0;
  for (uint32_t i = 0; rec->timed_ms < budget_ms; ++i) {
    const size_t q = i % nq;
    const LoadedQuery& lq = in.queries[q];
    const EvalRequest req =
        MakeRequest(in, q, Rng::DeriveSeed(args.seed ^ kReadTag, i));
    ++rec->attempted;

    const Clock::time_point t0 = Clock::now();
    Result<PqeAnswer> answer = Status::Internal("unset");
    if (tracer == nullptr) {
      EvalResponse resp = engine.EvaluateRequest(req);
      answer = resp.status.ok() ? Result<PqeAnswer>(std::move(resp.answer))
                                : Result<PqeAnswer>(resp.status);
    } else {
      answer = TracedColdRequest(lq, *req.pdb, *req.seed, i, tracer);
    }
    const Clock::time_point t1 = Clock::now();
    if (tracer != nullptr) tracer->Record(i, "request", t0, t1);
    const double ms = MsBetween(t0, t1);
    rec->timed_ms += ms;
    PQE_RETURN_IF_ERROR(TimedLoad(spec, rec).status());

    std::string error = answer.ok() ? CheckRoute(*answer, lq.spec->route)
                                    : answer.status().ToString();
    if (error.empty() && tracer != nullptr && i % kParityEvery == 0) {
      // Layer parity: the chain must reproduce the engine bit for bit.
      const Clock::time_point r0 = Clock::now();
      const EvalResponse ref = engine.EvaluateRequest(req);
      ++lc->parity_checked;
      lc->parity_chain_ms += ms;
      lc->parity_reference_ms += MsBetween(r0, Clock::now());
      if (!ref.status.ok() ||
          !SameBits(ref.answer.probability, answer->probability)) {
        error = "layer chain differs from the engine's answer";
      }
    }
    if (!error.empty()) {
      rec->Fail(lq.spec->name + ": " + error);
      continue;
    }
    RecordAnswer(lq.spec->name, lq.spec->route, *answer, ms, exact[q],
                 /*counted=*/true, rec, lc);
  }
  return Status::OK();
}

// The serve_updates operation schedule, in blocks of seven:
//   read(a) read(a, repeated) write read(b) write read(c) write
// The repeated read re-sends the request just answered, with no write in
// between, so the answer memo serves it: a quarter of all reads. Every
// fourth write changes denominators (a full rebind of every resident
// query); the rest change numerators only (delta patches).
struct Op {
  bool write = false;
  bool repeat = false;  // read: re-send the block's first request
  uint64_t index = 0;   // fresh-read index, or write index
};

constexpr uint64_t kBlockOps = 7;

Op ScheduleOp(uint64_t i) {
  const uint64_t block = i / kBlockOps;
  switch (i % kBlockOps) {
    case 0:
      return Op{false, false, 3 * block};
    case 1:
      return Op{false, true, 3 * block};
    case 2:
      return Op{true, false, 3 * block};
    case 3:
      return Op{false, false, 3 * block + 1};
    case 4:
      return Op{true, false, 3 * block + 1};
    case 5:
      return Op{false, false, 3 * block + 2};
    default:
      return Op{true, false, 3 * block + 2};
  }
}

bool IsFullRebindWrite(uint64_t write_index) { return write_index % 4 == 3; }

// The writes of one run, in order. Each write gives one fact of every
// query's projection a new probability: numerator-only, or for a full
// rebind a denominator moved within [5, 8] (5 <-> 7, 6 <-> 8: same gadget
// width, so the automaton keeps its size, but the bound layout's
// denominator no longer matches). A fact touched by one of the last
// kFreshWindow writes is not picked again, so no write can restore a
// labelling still held in a bind LRU: every write rebinds every query.
class WriteGenerator {
 public:
  WriteGenerator(uint64_t seed, std::vector<std::vector<FactId>> query_facts)
      : rng_(Rng::DeriveSeed(seed ^ kWriteTag, 0)),
        query_facts_(std::move(query_facts)) {}

  serve::LabelDelta Next(const ProbabilisticDatabase& pdb, bool full) {
    serve::LabelDelta delta;
    for (const auto& facts : query_facts_) {
      FactId f = 0;
      do {
        f = facts[rng_.NextBounded(facts.size())];
      } while (Recent(f) || std::find(delta.facts.begin(), delta.facts.end(),
                                      f) != delta.facts.end());
      Probability p = pdb.probability(f);
      if (full) p.den = p.den <= 6 ? p.den + 2 : p.den - 2;
      const uint64_t old_num = p.num;
      do {
        p.num = 1 + rng_.NextBounded(p.den - 1);
      } while (!full && p.num == old_num);
      delta.facts.push_back(f);
      delta.new_probs.push_back(p);
    }
    recent_.push_back(delta.facts);
    if (recent_.size() > kFreshWindow) recent_.erase(recent_.begin());
    return delta;
  }

 private:
  // Longer than the bind LRU (PqeService::Options::bind_cache_capacity).
  static constexpr size_t kFreshWindow = 6;

  bool Recent(FactId f) const {
    for (const auto& facts : recent_) {
      if (std::find(facts.begin(), facts.end(), f) != facts.end()) return true;
    }
    return false;
  }

  Rng rng_;
  std::vector<std::vector<FactId>> query_facts_;
  std::vector<std::vector<FactId>> recent_;
};

// Served answers checked against a cold engine evaluation of the
// post-update database (memcmp on the probability), one in this many fresh
// reads.
constexpr uint64_t kMemcmpEvery = 24;

Result<std::shared_ptr<const serve::PreparedQuery>> CacheLookup(
    serve::PreparedCache* cache, const LoadedQuery& lq, const Database& db,
    serve::PreparedCache::LookupResult* lookup) {
  return lq.rpq.has_value()
             ? cache->GetOrPrepareRpq(*lq.rpq, db, lookup)
             : cache->GetOrPrepare(*lq.cq, db, UrConstructionOptions{},
                                   lookup);
}

// The traced run's set-up: each query's skeleton construction as a layer call,
// then the compile and bind through a PreparedCache of our own (the
// estimator config carries a cancelled token, so the counter aborts at its
// first poll after the bind).
Status TracedServedSetUp(const Loaded& in, const Database& db,
                         const ProbabilisticDatabase& pdb,
                         serve::PreparedCache* cache, Tracer* t) {
  CancelToken cancelled;
  cancelled.Cancel();
  const EstimatorConfig cfg =
      PqeEngine::MakeEstimatorConfig(EngineOptions(), &cancelled);
  for (const LoadedQuery& lq : in.queries) {
    Status s;
    if (lq.rpq.has_value()) {
      s = t->Call(kSetupOp, "rpq.compile", [&] {
             return rpq::CompileRpqSkeleton(*lq.rpq, db);
           }).status();
    } else if (OnPathRoute(*lq.cq)) {
      s = t->Call(kSetupOp, "core.skeleton", [&] {
             return BuildPathPqeSkeleton(*lq.cq, db);
           }).status();
    } else {
      s = t->Call(kSetupOp, "core.skeleton", [&] {
             return BuildPqeSkeleton(*lq.cq, db, UrConstructionOptions{});
           }).status();
    }
    PQE_RETURN_IF_ERROR(s);
    serve::PreparedCache::LookupResult lookup;
    PQE_ASSIGN_OR_RETURN(std::shared_ptr<const serve::PreparedQuery> pq,
                         CacheLookup(cache, lq, db, &lookup));
    t->AddInner("serve.compile", static_cast<double>(lookup.compile_ns) / 1e6);
    (void)pq->EvaluateFpras(pdb, cfg);  // binds; the counter aborts
  }
  return Status::OK();
}

// PqeService's prepared read as layer calls.
Result<PqeAnswer> TracedServedRead(serve::PreparedCache* cache,
                                   const LoadedQuery& lq,
                                   const ProbabilisticDatabase& pdb,
                                   uint64_t seed, uint32_t op, Tracer* t,
                                   LayerCounts* lc, bool* memo_hit) {
  serve::PreparedCache::LookupResult lookup;
  PQE_ASSIGN_OR_RETURN(std::shared_ptr<const serve::PreparedQuery> pq,
                       t->Call(op, "serve.lookup", [&] {
                         return CacheLookup(cache, lq, pdb.database(),
                                            &lookup);
                       }));
  if (!lookup.hit) return Status::Internal("prepared query recompiled");
  PqeEngine::Options opts = EngineOptions();
  opts.seed = seed;
  const EstimatorConfig cfg = PqeEngine::MakeEstimatorConfig(opts, nullptr);
  serve::PreparedQuery::EvalBreakdown bd;
  PQE_ASSIGN_OR_RETURN(PqeAnswer a, t->Call(op, "serve.evaluate_fpras", [&] {
                         return pq->EvaluateFpras(pdb, cfg, &bd);
                       }));
  ++lc->reads;
  t->AddInner("serve.bind", static_cast<double>(bd.bind_ns) / 1e6);
  if (bd.bind_reused) ++lc->bind_reused;
  *memo_hit = bd.answer_memo_hit;
  if (bd.answer_memo_hit) {
    ++lc->memo_hits;
  } else {
    const double est = static_cast<double>(bd.estimate_ns) / 1e6;
    t->AddInner("serve.estimate", est);
    t->AddInner(pq->is_path_route() ? "counting.nfa" : "counting.nfta", est);
  }
  return a;
}

// PqeService::ApplyUpdate's body as layer calls: write the database, then
// rebind every resident prepared query.
Status TracedWrite(serve::PreparedCache* cache, ProbabilisticDatabase* pdb,
                   const serve::LabelDelta& delta, bool full, size_t nq,
                   uint32_t op, Tracer* t, LayerCounts* lc) {
  for (size_t k = 0; k < delta.facts.size(); ++k) {
    PQE_RETURN_IF_ERROR(t->Call(op, "pdb.set_probability", [&] {
      return pdb->SetProbability(delta.facts[k], delta.new_probs[k]);
    }));
  }
  const auto resident =
      t->Call(op, "serve.snapshot", [&] { return cache->Snapshot(); });
  if (resident.size() != nq) {
    return Status::Internal("a prepared query was evicted");
  }
  for (const auto& pq : resident) {
    const Clock::time_point r0 = Clock::now();
    auto rs = pq->Rebind(delta);
    const Clock::time_point r1 = Clock::now();
    if (!rs.ok()) return rs.status();
    if (rs->delta == full || rs->reused) {
      return Status::Internal("write took the wrong rebind path");
    }
    t->Record(op, rs->delta ? "core.rebind" : "core.bind", r0, r1);
    lc->patched_slots += rs->patched_slots;
    ++(rs->delta ? lc->delta_rebinds : lc->full_rebinds);
  }
  return Status::OK();
}

// An untraced write must reach every resident query on the path its
// schedule names.
std::string CheckWrite(const Result<serve::PqeService::UpdateStats>& stats,
                       bool full, size_t nq) {
  if (!stats.ok()) return stats.status().ToString();
  const size_t reached = full ? stats->full_rebinds : stats->delta_rebinds;
  if (reached == nq) return "";
  return "write reached " + std::to_string(reached) + " of " +
         std::to_string(nq) + " queries as " +
         (full ? "full rebinds" : "delta patches");
}

// Warms every query of a service: compile and bind. The request carries a
// 1 ms deadline, which the compile and the bind do not poll; the counter
// aborts at its first poll, so warming does no sampling.
void WarmService(const serve::PqeService& service, const Loaded& in,
                 const ProbabilisticDatabase& pdb) {
  for (size_t q = 0; q < in.queries.size(); ++q) {
    EvalRequest warm = MakeRequest(in, q, 0);
    warm.pdb = &pdb;
    warm.deadline_ms = 1;
    (void)service.Evaluate(warm);
  }
}

Status RunServed(const Args& args, const WorkloadSpec& spec, RunRecord* rec,
                 Tracer* tracer, LayerCounts* lc) {
  const PqeEngine engine(EngineOptions());
  const size_t nq = spec.datasets[0].queries.size();
  const serve::PqeService::Options sopts = ServiceOptions();

  // Set-up: load, construct the service, compile and bind every query. It
  // is repeated, outside the timed work, after every block of operations,
  // so that the median set-up samples the host over the whole run.
  const auto set_up = [&]() -> Result<
                                std::pair<Loaded,
                                          std::unique_ptr<serve::PqeService>>> {
    const Clock::time_point t0 = Clock::now();
    PQE_ASSIGN_OR_RETURN(Loaded loaded, Load(spec));
    std::unique_ptr<serve::PqeService> svc;
    if (tracer == nullptr) {
      svc = std::make_unique<serve::PqeService>(sopts);
      WarmService(*svc, loaded, loaded.pdbs[0]);
    }
    rec->setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    return std::make_pair(std::move(loaded), std::move(svc));
  };
  PQE_ASSIGN_OR_RETURN(auto first, set_up());
  Loaded in = std::move(first.first);
  std::unique_ptr<serve::PqeService> service = std::move(first.second);
  ProbabilisticDatabase& pdb = in.pdbs[0];

  // The traced run serves from a cache of its own; its service, over a copy
  // of the database kept in step with every write, is the parity reference.
  std::unique_ptr<serve::PreparedCache> cache;
  std::optional<ProbabilisticDatabase> ref_pdb;
  if (tracer != nullptr) {
    cache = std::make_unique<serve::PreparedCache>(sopts.cache_capacity,
                                                   sopts.bind_cache_capacity);
    PQE_RETURN_IF_ERROR(
        TracedServedSetUp(in, pdb.database(), pdb, cache.get(), tracer));
    ref_pdb.emplace(pdb);
    service = std::make_unique<serve::PqeService>(sopts);
    WarmService(*service, in, *ref_pdb);
  }
  if (service->cache().size() != nq) {
    return Status::Internal("set-up left " +
                            std::to_string(service->cache().size()) + " of " +
                            std::to_string(nq) + " queries resident");
  }
  service->ResetStats();

  std::vector<std::vector<FactId>> qfacts;
  for (size_t q = 0; q < nq; ++q) qfacts.push_back(QueryFacts(in, q));
  WriteGenerator writes(args.seed, std::move(qfacts));

  // The oracle answer per (query, labelling version), computed on demand.
  uint64_t version = 0;
  std::vector<std::pair<uint64_t, double>> exact(nq, {UINT64_MAX, 0.0});
  double block_first_answer = 0;
  uint64_t fresh_reads = 0;
  uint64_t repeat_reads = 0;
  uint64_t delta_writes = 0;
  uint64_t full_writes = 0;

  const double budget_ms = args.seconds * 1000.0;
  for (uint32_t i = 0; rec->timed_ms < budget_ms; ++i) {
    if (tracer == nullptr && i > 0 && i % kBlockOps == 0) {
      PQE_RETURN_IF_ERROR(set_up().status());
    }
    const Op op = ScheduleOp(i);
    ++rec->attempted;
    if (op.write) {
      const bool full = IsFullRebindWrite(op.index);
      const serve::LabelDelta delta = writes.Next(pdb, full);
      std::string error;
      const Clock::time_point t0 = Clock::now();
      if (tracer == nullptr) {
        const auto stats = service->ApplyUpdate(&pdb, delta);
        error = CheckWrite(stats, full, nq);
      } else {
        const Status s =
            TracedWrite(cache.get(), &pdb, delta, full, nq, i, tracer, lc);
        if (!s.ok()) error = s.ToString();
      }
      const Clock::time_point t1 = Clock::now();
      if (tracer != nullptr) {
        tracer->Record(i, "write", t0, t1);
        const auto ref = service->ApplyUpdate(&*ref_pdb, delta);  // untimed
        if (error.empty() && !ref.ok()) error = ref.status().ToString();
      }
      const double ms = MsBetween(t0, t1);
      rec->timed_ms += ms;
      ++version;
      if (!error.empty()) {
        rec->Fail("write: " + error);
        continue;
      }
      rec->write_ms.push_back(ms);
      (full ? rec->full_write_ms : rec->delta_write_ms).push_back(ms);
      ++(full ? full_writes : delta_writes);
      continue;
    }

    const size_t q = op.index % nq;
    const LoadedQuery& lq = in.queries[q];
    const uint64_t seed = Rng::DeriveSeed(args.seed ^ kReadTag, op.index);
    const EvalRequest req = MakeRequest(in, q, seed);
    bool memo_hit = false;
    const Clock::time_point t0 = Clock::now();
    Result<PqeAnswer> answer = Status::Internal("unset");
    if (tracer == nullptr) {
      EvalResponse resp = service->Evaluate(req);
      answer = resp.status.ok() ? Result<PqeAnswer>(std::move(resp.answer))
                                : Result<PqeAnswer>(resp.status);
    } else {
      answer = TracedServedRead(cache.get(), lq, pdb, seed, i, tracer, lc,
                                &memo_hit);
    }
    const Clock::time_point t1 = Clock::now();
    if (tracer != nullptr) tracer->Record(i, "request", t0, t1);
    const double ms = MsBetween(t0, t1);
    rec->timed_ms += ms;
    ++(op.repeat ? repeat_reads : fresh_reads);

    std::string error = answer.ok() ? CheckRoute(*answer, lq.spec->route)
                                    : answer.status().ToString();
    if (error.empty() && op.repeat &&
        !SameBits(answer->probability, block_first_answer)) {
      error = "repeated request changed its answer";
    }
    if (error.empty() && !op.repeat && tracer != nullptr &&
        op.index % kParityEvery == 0) {
      // Layer parity against the reference service (same warm state, same
      // request), which also times the untraced read for the overhead.
      EvalRequest ref_req = req;
      ref_req.pdb = &*ref_pdb;
      const Clock::time_point r0 = Clock::now();
      const EvalResponse ref = service->Evaluate(ref_req);
      ++lc->parity_checked;
      lc->parity_chain_ms += ms;
      lc->parity_reference_ms += MsBetween(r0, Clock::now());
      if (!ref.status.ok() ||
          !SameBits(ref.answer.probability, answer->probability)) {
        error = "layer chain differs from the service's answer";
      }
    }
    if (error.empty() && !op.repeat && op.index % kMemcmpEvery == 1) {
      // The served answer must equal a cold evaluation of the post-update
      // database at the same seed, bit for bit.
      ++rec->memcmp_checked;
      const EvalResponse cold = engine.EvaluateRequest(req);
      if (!cold.status.ok() ||
          !SameBits(cold.answer.probability, answer->probability)) {
        error = "served answer differs from a cold evaluation";
      }
    }
    if (!error.empty()) {
      rec->Fail(lq.spec->name + ": " + error);
      continue;
    }
    if (!op.repeat && i % kBlockOps == 0) {
      block_first_answer = answer->probability;
    }
    if (exact[q].first != version) {
      PQE_ASSIGN_OR_RETURN(double p, ExactProbability(engine, in, q));
      exact[q] = {version, p};
    }
    RecordAnswer(lq.spec->name + (op.repeat ? "(memo)" : ""), lq.spec->route,
                 *answer, ms, exact[q].second, !memo_hit, rec, lc);
  }

  // The service's own accounting must match the schedule: every fresh read
  // a warm bind, every repeated read an answer-memo hit, nothing delegated
  // to a non-prepared route.
  if (tracer == nullptr) {
    const serve::ServiceStats st = service->StatsSnapshot();
    auto n = [&](serve::CacheClass c) {
      return st.by_class[static_cast<size_t>(c)];
    };
    const uint64_t warm = n(serve::CacheClass::kWarmBind);
    const uint64_t memo = n(serve::CacheClass::kAnswerMemo);
    const uint64_t delegated = n(serve::CacheClass::kDelegated);
    if (delegated != 0 || warm != fresh_reads || memo != repeat_reads) {
      rec->Fail("service routes: warm_bind=" + std::to_string(warm) +
                " answer_memo=" + std::to_string(memo) +
                " delegated=" + std::to_string(delegated) +
                ", schedule wants " + std::to_string(fresh_reads) + "/" +
                std::to_string(repeat_reads) + "/0");
    }
    rec->routes["answer_memo"] = memo;
  } else {
    lc->cache = cache->stats();
  }
  rec->routes["delta_writes"] = delta_writes;
  rec->routes["full_writes"] = full_writes;
  return Status::OK();
}

// ---------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Share(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> EndToEndMetrics(const RunRecord& rec) {
  std::vector<Metric> m;
  m.push_back({"setup_s", Quantile(rec.setup_s, 0.5), "s"});
  m.push_back({"latency_p50_ms", Quantile(rec.read_ms, 0.5), "ms"});
  m.push_back({"latency_p90_ms", Quantile(rec.read_ms, 0.9), "ms"});
  m.push_back({"answers_per_s",
               Share(static_cast<double>(rec.answers), rec.timed_ms / 1000.0),
               "1/s"});
  m.push_back({"ok_rate",
               Share(static_cast<double>(rec.attempted - rec.failed),
                     static_cast<double>(rec.attempted)),
               "share"});
  m.push_back({"eps_hit_rate",
               Share(static_cast<double>(rec.eps_hits),
                     static_cast<double>(rec.eps_checked)),
               "share"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  return m;
}

std::vector<Metric> PerLayerMetrics(const RunRecord& rec, const Tracer& t,
                                    const LayerCounts& lc) {
  const double runs = static_cast<double>(lc.counting.runs);
  const CountStats& c = lc.counting.sum;
  auto per_run = [&](size_t v) { return Share(static_cast<double>(v), runs); };
  const double bound = static_cast<double>(lc.bound_runs);
  const double reads = static_cast<double>(lc.reads);
  const double rebinds =
      static_cast<double>(lc.delta_rebinds + lc.full_rebinds);
  const auto& cache = lc.cache;
  std::vector<Metric> m = {
      {"hypertree.decompose_ms", t.MeanMs("hypertree.decompose"), "ms"},
      {"core.skeleton_ms", t.MeanMs("core.skeleton"), "ms"},
      {"core.project_ms", t.MeanMs("core.project"), "ms"},
      {"core.bind_ms", t.MeanMs("core.bind"), "ms"},
      {"core.rebind_ms", t.MeanMs("core.rebind"), "ms"},
      {"core.patched_slots",
       Share(static_cast<double>(lc.patched_slots),
             static_cast<double>(lc.delta_rebinds)),
       "count"},
      {"core.bound_states", Share(lc.bound_states, bound), "count"},
      {"core.bound_transitions", Share(lc.bound_transitions, bound), "count"},
      {"core.word_size", Share(lc.word_size, bound), "count"},
      {"rpq.compile_ms", t.MeanMs("rpq.compile"), "ms"},
      {"counting.nfta_ms", t.MeanMs("counting.nfta"), "ms"},
      {"counting.nfa_ms", t.MeanMs("counting.nfa"), "ms"},
      {"counting.strata_total", per_run(c.strata_total), "count"},
      {"counting.strata_live_share",
       Share(static_cast<double>(c.strata_live),
             static_cast<double>(c.strata_total)),
       "share"},
      {"counting.pool_entries", per_run(c.pool_entries), "count"},
      {"counting.attempts", per_run(c.attempts), "count"},
      {"counting.accept_rate",
       Share(static_cast<double>(c.accepted), static_cast<double>(c.attempts)),
       "share"},
      {"counting.forced_samples", per_run(c.forced_samples), "count"},
      {"counting.membership_checks", per_run(c.membership_checks), "count"},
      {"counting.memo_hit_rate",
       Share(static_cast<double>(c.runstates_memo_hits),
             static_cast<double>(c.runstates_memo_hits +
                                 c.runstates_memo_misses)),
       "share"},
      {"serve.lookup_ms", t.MeanMs("serve.lookup"), "ms"},
      {"serve.compile_ms", t.MeanMs("serve.compile"), "ms"},
      {"serve.bind_ms", t.MeanMs("serve.bind"), "ms"},
      {"serve.estimate_ms", t.MeanMs("serve.estimate"), "ms"},
      {"serve.update_p50_ms", Quantile(rec.write_ms, 0.5), "ms"},
      {"serve.update_p90_ms", Quantile(rec.write_ms, 0.9), "ms"},
      {"serve.prepared_hit_rate",
       Share(static_cast<double>(cache.hits),
             static_cast<double>(cache.hits + cache.misses)),
       "share"},
      {"serve.bind_reuse_rate",
       Share(static_cast<double>(lc.bind_reused), reads), "share"},
      {"serve.delta_rebind_share",
       Share(static_cast<double>(lc.delta_rebinds), rebinds), "share"},
      {"serve.answer_memo_hit_rate",
       Share(static_cast<double>(lc.memo_hits), reads), "share"},
      {"layers.coverage", t.Coverage(), "share"},
      {"layers.overhead_share",
       Share(lc.parity_chain_ms, lc.parity_reference_ms) - 1.0, "share"},
  };
  return m;
}

void PrintResult(bool correct, const RunRecord& rec,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(rec.attempted) +
                    ", \"failed\": " + std::to_string(rec.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintStamp(const Args& args) {
  std::printf(
      "stamp {\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"PQE_ENABLE_TRACING\": %d, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": "
      "%d}\n",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      PQE_ENABLE_TRACING, args.workload.c_str(),
      static_cast<unsigned long long>(args.seed),
      FormatNumber(args.seconds).c_str(), args.trace ? 1 : 0);
}

void PrintSummary(const RunRecord& rec) {
  std::string routes = "routes";
  for (const auto& [name, n] : rec.routes) {
    routes += " " + name + "=" + std::to_string(n);
  }
  std::printf("%s\n", routes.c_str());
  for (const auto& [name, ms] : rec.per_query_ms) {
    std::printf("query %-20s n=%-4zu p50=%.3fms p90=%.3fms\n", name.c_str(),
                ms.size(), Quantile(ms, 0.5), Quantile(ms, 0.9));
  }
  std::printf("reads n=%zu p50=%.3fms p90=%.3fms; setup reps=%zu\n",
              rec.read_ms.size(), Quantile(rec.read_ms, 0.5),
              Quantile(rec.read_ms, 0.9), rec.setup_s.size());
  if (!rec.write_ms.empty()) {
    std::printf(
        "writes n=%zu p50=%.3fms p90=%.3fms (delta n=%zu p50=%.3fms, full "
        "n=%zu p50=%.3fms)\n",
        rec.write_ms.size(), Quantile(rec.write_ms, 0.5),
        Quantile(rec.write_ms, 0.9), rec.delta_write_ms.size(),
        Quantile(rec.delta_write_ms, 0.5), rec.full_write_ms.size(),
        Quantile(rec.full_write_ms, 0.5));
  }
  if (rec.memcmp_checked > 0) {
    std::printf("memcmp checks against cold evaluations: %llu\n",
                static_cast<unsigned long long>(rec.memcmp_checked));
  }
  for (const std::string& e : rec.errors) {
    std::printf("FAILED %s\n", e.c_str());
  }
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument("missing value: " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return Status::InvalidArgument("bad --seed " + v);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) {
        return Status::InvalidArgument("bad --seconds " + v);
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return Status::InvalidArgument("bad --trace");
      a.trace = v == "1";
    } else if (flag == "--spans_out") {
      a.spans_out = v;
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (!have_workload) return Status::InvalidArgument("--workload is required");
  return a;
}

int Main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "pqe_perfbench: built without optimisation; refusing to "
               "report numbers\n");
  return 2;
#endif
  auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "pqe_perfbench: %s\n",
                 args.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec spec = MakeWorkload(args->workload, args->seed);
  if (spec.datasets.empty()) {
    std::fprintf(stderr, "pqe_perfbench: unknown workload %s\n",
                 args->workload.c_str());
    return 2;
  }
  PrintStamp(*args);

  RunRecord rec;
  std::optional<Tracer> tracer;
  LayerCounts counts;
  if (args->trace) tracer.emplace(Clock::now());
  Tracer* t = tracer.has_value() ? &*tracer : nullptr;
  LayerCounts* lc = args->trace ? &counts : nullptr;
  const Status s = spec.served ? RunServed(*args, spec, &rec, t, lc)
                               : RunCold(*args, spec, &rec, t, lc);
  if (!s.ok()) {
    std::fprintf(stderr, "pqe_perfbench: %s\n", s.ToString().c_str());
    return 1;
  }
  PrintSummary(rec);
  bool correct = rec.failed == 0 && rec.answers > 0;
  // A broken estimator misses (1 ± ε) almost always; a sound one at
  // confidence 0.9 hits most of the time.
  if (Share(static_cast<double>(rec.eps_hits),
            static_cast<double>(rec.eps_checked)) < 0.5) {
    std::printf("FAILED eps_hit_rate below 0.5\n");
    correct = false;
  }
  std::vector<Metric> metrics;
  if (t != nullptr) {
    if (!args->spans_out.empty() && !t->WriteSpans(args->spans_out)) {
      std::printf("FAILED cannot write spans to %s\n", args->spans_out.c_str());
      correct = false;
    }
    if (counts.parity_checked == 0) {
      std::printf("FAILED no layer parity check ran\n");
      correct = false;
    }
    // The timed layer calls must account for the request time, or the
    // per-layer numbers leave part of a request unexplained.
    if (t->Coverage() < 0.9) {
      std::printf("FAILED layers.coverage below 0.9\n");
      correct = false;
    }
    std::printf("layer parity checks: %llu, coverage %.4f\n",
                static_cast<unsigned long long>(counts.parity_checked),
                t->Coverage());
    metrics = PerLayerMetrics(rec, *t, counts);
  } else {
    metrics = EndToEndMetrics(rec);
  }
  PrintResult(correct, rec, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pqe

int main(int argc, char** argv) { return pqe::Main(argc, argv); }
