// pqe_cli — evaluate the probability of a Boolean query over a
// tuple-independent probabilistic database given as a text file. The query
// is either a conjunctive query (--query) or a regular path query (--rpq).
//
//   pqe_cli --data facts.txt --query "Follows(x,y), Likes(y,z)"
//   pqe_cli --data graph.txt --rpq "Follows+ / Likes"
//
// Every flag is declared once in kFlags below; the parser and the --help
// text are both generated from that table, so they cannot drift apart.
// Run `pqe_cli --help` for the full list.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/sampling.h"
#include "cq/parser.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "rpq/regex.h"
#include "serve/service.h"
#include "serve/workload.h"
#include "tools/fact_file.h"

namespace {

// Every CLI-settable option, defaults included. One struct so the flag
// table's setters can be captureless function pointers.
struct CliOptions {
  std::string data_path;
  std::string query_text;
  std::string rpq_text;
  std::string method = "auto";
  double epsilon = 0.2;
  uint64_t seed = 42;
  size_t max_width = 3;
  size_t num_threads = 0;
  bool uniform_reliability = false;
  size_t sample_worlds = 0;
  std::string server_batch_path;
  std::string capture_path;
  std::string replay_path;
  std::string update_spec;
  uint64_t deadline_ms = 0;
  bool trace_text = false;
  bool trace_json = false;
  bool dump_metrics = false;
  bool metrics_prom = false;
  bool print_stats = false;
  bool help = false;
};

// One flag: its spelling, its value placeholder (nullptr for booleans), the
// help text (embedded '\n' continues on an indented line), and the setter.
// Value flags accept both `--flag V` and `--flag=V`.
struct FlagSpec {
  const char* name;
  const char* metavar;  // nullptr: boolean, setter receives nullptr
  const char* help;
  void (*set)(CliOptions&, const char*);
};

const FlagSpec kFlags[] = {
    {"--data", "FILE", "probabilistic database fact file (required)",
     [](CliOptions& o, const char* v) { o.data_path = v; }},
    {"--query", "Q", "Boolean conjunctive query, e.g. 'R(x,y), S(y,z)'",
     [](CliOptions& o, const char* v) { o.query_text = v; }},
    {"--rpq", "REGEX",
     "regular path query over edge labels, e.g. 'a/(b|c)*/d'\n"
     "(SPARQL property-path style: / concat, | alt, * + ?,\n"
     "^label inverse); evaluated instead of --query",
     [](CliOptions& o, const char* v) { o.rpq_text = v; }},
    {"--method", "M",
     "auto|fpras|safe-plan|enumeration|karp-luby|\n"
     "exact-lineage|monte-carlo (default auto)",
     [](CliOptions& o, const char* v) { o.method = v; }},
    {"--epsilon", "E", "target relative error (default 0.2)",
     [](CliOptions& o, const char* v) { o.epsilon = std::atof(v); }},
    {"--seed", "N", "RNG seed (default 42)",
     [](CliOptions& o, const char* v) {
       o.seed = std::strtoull(v, nullptr, 10);
     }},
    {"--max-width", "W", "hypertree width budget (default 3)",
     [](CliOptions& o, const char* v) {
       o.max_width = std::strtoull(v, nullptr, 10);
     }},
    {"--threads", "N",
     "worker threads for the sampling loops (default:\n"
     "$PQE_THREADS, else 1; results do not depend on N)",
     [](CliOptions& o, const char* v) {
       o.num_threads = std::strtoull(v, nullptr, 10);
     }},
    {"--ur", nullptr, "report uniform reliability instead of probability",
     [](CliOptions& o, const char*) { o.uniform_reliability = true; }},
    {"--sample", "K", "print K sampled worlds conditioned on Q holding",
     [](CliOptions& o, const char* v) {
       o.sample_worlds = std::strtoull(v, nullptr, 10);
     }},
    {"--server-batch", "F",
     "serve the queries in file F (one per line; # and\n"
     "blank lines skipped; 'rpq:' prefix marks a regular\n"
     "path query) through the prepared-query serving\n"
     "layer as one batch; --query is ignored",
     [](CliOptions& o, const char* v) { o.server_batch_path = v; }},
    {"--deadline-ms", "N",
     "per-request wall-clock budget; an expired request\n"
     "returns a typed DeadlineExceeded status",
     [](CliOptions& o, const char* v) {
       o.deadline_ms = std::strtoull(v, nullptr, 10);
     }},
    {"--trace", nullptr, "print the evaluation's span tree (timings)",
     [](CliOptions& o, const char*) { o.trace_text = true; }},
    {"--trace=json", nullptr, "same, as a JSON document on stdout",
     [](CliOptions& o, const char*) { o.trace_json = true; }},
    {"--metrics", nullptr, "dump the global metric registry as JSON",
     [](CliOptions& o, const char*) { o.dump_metrics = true; }},
    {"--metrics=prom", nullptr, "same, in OpenMetrics/Prometheus text format",
     [](CliOptions& o, const char*) {
       o.dump_metrics = true;
       o.metrics_prom = true;
     }},
    {"--capture", "F",
     "(with --server-batch) append every served request\n"
     "to workload file F (JSONL)",
     [](CliOptions& o, const char* v) { o.capture_path = v; }},
    {"--update", "SPEC",
     "(with --server-batch) after the first round, apply\n"
     "the fact-probability delta SPEC (FACT=NUM/DEN,...)\n"
     "via the serving layer's incremental rebind and\n"
     "serve the batch again over the updated database",
     [](CliOptions& o, const char* v) { o.update_spec = v; }},
    {"--replay", "F",
     "re-execute workload file F through the serving\n"
     "layer and verify bit-identical answers",
     [](CliOptions& o, const char* v) { o.replay_path = v; }},
    {"--stats", nullptr,
     "print the service stats snapshot as JSON\n"
     "(server-batch and replay modes)",
     [](CliOptions& o, const char*) { o.print_stats = true; }},
    {"--help", nullptr, "print this help",
     [](CliOptions& o, const char*) { o.help = true; }},
};

void Usage() {
  std::fprintf(stderr,
               "usage: pqe_cli --data FILE (--query 'R(x,y), S(y,z)' | "
               "--rpq 'a/b*') [options]\n");
  for (const FlagSpec& f : kFlags) {
    std::string head = f.name;
    if (f.metavar != nullptr) {
      head += ' ';
      head += f.metavar;
    }
    // First help line after the flag, continuations aligned beneath it.
    const char* text = f.help;
    bool first = true;
    while (*text != '\0') {
      const char* nl = std::strchr(text, '\n');
      const size_t len = nl != nullptr ? static_cast<size_t>(nl - text)
                                       : std::strlen(text);
      std::fprintf(stderr, "  %-18s %.*s\n", first ? head.c_str() : "",
                   static_cast<int>(len), text);
      text += len + (nl != nullptr ? 1 : 0);
      first = false;
    }
  }
}

// Parses argv against kFlags. Returns false (after printing a diagnostic and
// the usage text) on an unknown flag or a missing value.
bool ParseArgs(int argc, char** argv, CliOptions* out) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const FlagSpec* match = nullptr;
    const char* value = nullptr;
    for (const FlagSpec& f : kFlags) {
      if (std::strcmp(arg, f.name) == 0) {
        match = &f;
        if (f.metavar != nullptr) {
          if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", f.name);
            Usage();
            return false;
          }
          value = argv[++i];
        }
        break;
      }
      const size_t n = std::strlen(f.name);
      if (f.metavar != nullptr && std::strncmp(arg, f.name, n) == 0 &&
          arg[n] == '=') {
        match = &f;
        value = arg + n + 1;
        break;
      }
    }
    if (match == nullptr) {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      Usage();
      return false;
    }
    match->set(*out, value);
  }
  return true;
}

// One line of a --server-batch file: either a conjunctive query or (with the
// 'rpq:' prefix) a regular path query. Parsed up front; the request vector
// points into this storage, which is stable once parsing finishes.
struct BatchEntry {
  std::string text;  // raw line, for printing
  std::optional<pqe::ConjunctiveQuery> cq;
  std::optional<pqe::rpq::RpqQuery> rpq;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pqe;
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) return 2;
  if (cli.help) {
    Usage();
    return 0;
  }

  if (cli.data_path.empty() ||
      (cli.query_text.empty() && cli.rpq_text.empty() &&
       cli.server_batch_path.empty() && cli.replay_path.empty())) {
    Usage();
    return 2;
  }
  if (!cli.rpq_text.empty() &&
      (cli.uniform_reliability || cli.sample_worlds > 0)) {
    std::fprintf(stderr, "--rpq does not combine with --ur or --sample\n");
    return 2;
  }

  auto DumpMetrics = [&cli]() {
    const obs::MetricsSnapshot snapshot =
        obs::MetricRegistry::Global().Snapshot();
    if (cli.metrics_prom) {
      std::printf("%s", obs::MetricsToOpenMetrics(snapshot).c_str());
    } else {
      std::printf("%s\n", obs::MetricsToJson(snapshot).c_str());
    }
  };

  auto pdb_or = LoadFactFile(cli.data_path);
  if (!pdb_or.ok()) {
    std::fprintf(stderr, "error loading data: %s\n",
                 pdb_or.status().ToString().c_str());
    return 1;
  }
  ProbabilisticDatabase pdb = pdb_or.MoveValue();

  // The query parser needs the schema from the data file; relations used
  // only in the query get added with inferred arities.
  Schema schema = pdb.schema();

  PqeEngine::Options::Builder builder;
  builder.Epsilon(cli.epsilon)
      .Seed(cli.seed)
      .MaxWidth(cli.max_width)
      .NumThreads(cli.num_threads)
      .CollectTrace(cli.trace_text || cli.trace_json);
  if (cli.method == "auto") {
    builder.Method(PqeMethod::kAuto);
  } else if (cli.method == "fpras") {
    builder.Method(PqeMethod::kFpras);
  } else if (cli.method == "safe-plan") {
    builder.Method(PqeMethod::kSafePlan);
  } else if (cli.method == "enumeration") {
    builder.Method(PqeMethod::kEnumeration);
  } else if (cli.method == "karp-luby") {
    builder.Method(PqeMethod::kKarpLubyLineage);
  } else if (cli.method == "exact-lineage") {
    builder.Method(PqeMethod::kExactLineage);
  } else if (cli.method == "monte-carlo") {
    builder.Method(PqeMethod::kMonteCarlo);
  } else {
    std::fprintf(stderr, "unknown method: %s\n", cli.method.c_str());
    return 2;
  }
  auto opts_or = builder.Build();
  if (!opts_or.ok()) {
    std::fprintf(stderr, "invalid options: %s\n",
                 opts_or.status().ToString().c_str());
    return 2;
  }

  // Replay mode: re-execute a captured workload through the serving layer
  // and verify the determinism contract — every replayed answer must equal
  // its recorded one bit for bit.
  if (!cli.replay_path.empty()) {
    auto records = serve::LoadWorkloadFile(cli.replay_path);
    if (!records.ok()) {
      std::fprintf(stderr, "error loading workload: %s\n",
                   records.status().ToString().c_str());
      return 1;
    }
    serve::PqeService::Options sopts;
    sopts.engine = *opts_or;
    sopts.num_threads = cli.num_threads;
    serve::PqeService service(sopts);
    auto report = serve::ReplayWorkload(service, pdb, *records);
    if (!report.ok()) {
      std::fprintf(stderr, "replay error: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", report->Summary().c_str());
    for (const std::string& detail : report->mismatch_details) {
      std::printf("  %s\n", detail.c_str());
    }
    if (cli.print_stats) {
      std::printf("%s\n", service.StatsSnapshot().ToJson().c_str());
    }
    if (cli.dump_metrics) DumpMetrics();
    return report->Clean() ? 0 : 1;
  }

  // Batch serving mode: every line of the file is a query evaluated over
  // the shared database through the prepared-query cache. Lines with the
  // 'rpq:' prefix are regular path queries; the rest are CQs.
  if (!cli.server_batch_path.empty()) {
    std::ifstream in(cli.server_batch_path);
    if (!in) {
      std::fprintf(stderr, "error opening %s\n",
                   cli.server_batch_path.c_str());
      return 1;
    }
    std::vector<BatchEntry> entries;
    std::string line;
    while (std::getline(in, line)) {
      const size_t first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      BatchEntry entry;
      entry.text = line;
      if (line.compare(first, 4, "rpq:") == 0) {
        auto q = rpq::RpqQuery::Parse(line.substr(first + 4));
        if (!q.ok()) {
          std::fprintf(stderr, "error parsing batch rpq \"%s\": %s\n",
                       line.c_str(), q.status().ToString().c_str());
          return 1;
        }
        entry.rpq = q.MoveValue();
      } else {
        auto q = ParseQuery(schema, line);
        if (!q.ok()) {
          std::fprintf(stderr, "error parsing batch query \"%s\": %s\n",
                       line.c_str(), q.status().ToString().c_str());
          return 1;
        }
        entry.cq = q.MoveValue();
      }
      entries.push_back(std::move(entry));
    }
    std::vector<EvalRequest> requests;
    requests.reserve(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      EvalRequest r = entries[i].rpq.has_value()
                          ? EvalRequest::ForRpq(*entries[i].rpq, pdb)
                          : EvalRequest::ForQuery(*entries[i].cq, pdb);
      r.request_id = i + 1;
      r.deadline_ms = cli.deadline_ms;
      requests.push_back(r);
    }
    serve::PqeService::Options sopts;
    sopts.engine = *opts_or;
    sopts.num_threads = cli.num_threads;
    sopts.capture_path = cli.capture_path;
    serve::PqeService service(sopts);
    if (!service.capture_status().ok()) {
      std::fprintf(stderr, "capture disabled: %s\n",
                   service.capture_status().ToString().c_str());
    }
    std::printf("serving %zu requests over %zu facts\n", requests.size(),
                pdb.NumFacts());
    int failures = 0;
    auto ServeRound = [&]() {
      const std::vector<EvalResponse> responses =
          service.EvaluateBatch(requests);
      for (size_t i = 0; i < responses.size(); ++i) {
        const EvalResponse& resp = responses[i];
        if (resp.status.ok()) {
          std::printf("[%llu] Pr(Q) %s %.6f  [%s]  %.1fms  %s\n",
                      static_cast<unsigned long long>(resp.request_id),
                      resp.answer.is_exact ? "=" : "~",
                      resp.answer.probability,
                      PqeMethodToString(resp.answer.method_used),
                      resp.elapsed_ms, entries[i].text.c_str());
        } else if (resp.deadline_exceeded) {
          std::printf("[%llu] DEADLINE_EXCEEDED after %.1fms (progress=%llu)"
                      "  %s\n",
                      static_cast<unsigned long long>(resp.request_id),
                      resp.elapsed_ms,
                      static_cast<unsigned long long>(resp.progress),
                      entries[i].text.c_str());
        } else {
          std::printf("[%llu] ERROR %s\n",
                      static_cast<unsigned long long>(resp.request_id),
                      resp.status.ToString().c_str());
          ++failures;
        }
      }
    };
    ServeRound();
    if (!cli.update_spec.empty()) {
      auto delta = serve::ParseLabelDeltaSpec(cli.update_spec);
      if (!delta.ok()) {
        std::fprintf(stderr, "bad --update spec: %s\n",
                     delta.status().ToString().c_str());
        return 2;
      }
      auto ustats = service.ApplyUpdate(&pdb, *delta);
      if (!ustats.ok()) {
        std::fprintf(stderr, "update failed: %s\n",
                     ustats.status().ToString().c_str());
        return 1;
      }
      std::printf(
          "update: %zu facts, %zu prepared visited, delta_rebinds=%zu "
          "full_rebinds=%zu untouched=%zu\n",
          ustats->facts, ustats->prepared_visited, ustats->delta_rebinds,
          ustats->full_rebinds, ustats->untouched);
      // Second round over the updated database: the requests point at the
      // same pdb object, so they see the new labels and land on the binds
      // ApplyUpdate refreshed.
      ServeRound();
    }
    const serve::PreparedCache::Stats cs = service.cache().stats();
    std::printf("cache: hits=%llu misses=%llu evictions=%llu\n",
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                static_cast<unsigned long long>(cs.evictions));
    if (cli.print_stats) {
      std::printf("%s\n", service.StatsSnapshot().ToJson().c_str());
    }
    if (cli.dump_metrics) DumpMetrics();
    return failures == 0 ? 0 : 1;
  }

  // Single-query mode. Parse whichever query form was given and build the
  // one request everything below serves.
  std::optional<ConjunctiveQuery> cq;
  std::optional<rpq::RpqQuery> rq;
  if (!cli.rpq_text.empty()) {
    auto q = rpq::RpqQuery::Parse(cli.rpq_text);
    if (!q.ok()) {
      std::fprintf(stderr, "error parsing rpq: %s\n",
                   q.status().ToString().c_str());
      return 1;
    }
    rq = q.MoveValue();
    std::printf("rpq:      %s\n", rq->Canonical().c_str());
  } else {
    auto q = ParseQuery(schema, cli.query_text);
    if (!q.ok()) {
      std::fprintf(stderr, "error parsing query: %s\n",
                   q.status().ToString().c_str());
      return 1;
    }
    cq = q.MoveValue();
    std::printf("query:    %s\n", cq->ToString(schema).c_str());
  }
  PqeEngine engine(*opts_or);
  std::printf("database: %zu facts (|H| = %zu bits)\n", pdb.NumFacts(),
              pdb.SizeInBits());

  if (cli.uniform_reliability) {
    const EvalResponse ur = engine.EvaluateRequest(
        EvalRequest::ForUniformReliability(*cq, pdb.database()));
    if (!ur.status.ok()) {
      std::fprintf(stderr, "error: %s\n", ur.status.ToString().c_str());
      return 1;
    }
    std::printf("UR(Q, D) ~ %.6g of 2^%zu subinstances\n",
                ur.answer.probability, pdb.NumFacts());
    return 0;
  }
  EvalRequest request = rq.has_value() ? EvalRequest::ForRpq(*rq, pdb)
                                       : EvalRequest::ForQuery(*cq, pdb);
  request.deadline_ms = cli.deadline_ms;
  const EvalResponse response = engine.EvaluateRequest(request);
  if (!response.status.ok()) {
    if (response.deadline_exceeded) {
      std::fprintf(stderr,
                   "DEADLINE_EXCEEDED after %.1fms (progress=%llu): %s\n",
                   response.elapsed_ms,
                   static_cast<unsigned long long>(response.progress),
                   response.status.ToString().c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", response.status.ToString().c_str());
    }
    return 1;
  }
  const PqeAnswer& answer = response.answer;
  std::printf("Pr(Q) %s %.6f   [%s]\n", answer.is_exact ? "=" : "~",
              answer.probability, PqeMethodToString(answer.method_used));
  const std::string diagnostics = RenderDiagnostics(answer);
  if (!diagnostics.empty()) {
    std::printf("  %s\n", diagnostics.c_str());
  }
  if (answer.trace != nullptr) {
    if (cli.trace_json) {
      std::printf("%s\n", obs::TraceToJson(*answer.trace).c_str());
    } else if (cli.trace_text) {
      std::printf("\ntrace:\n%s", obs::RenderTraceText(*answer.trace).c_str());
    }
  }
  if (cli.dump_metrics) DumpMetrics();

  if (cli.sample_worlds > 0) {
    EstimatorConfig cfg;
    cfg.epsilon = cli.epsilon;
    cfg.seed = cli.seed;
    cfg.num_threads = cli.num_threads;
    UrConstructionOptions uropts;
    uropts.max_width = cli.max_width;
    auto worlds =
        SampleConditionedWorlds(*cq, pdb, cfg, cli.sample_worlds, uropts);
    if (!worlds.ok()) {
      std::fprintf(stderr, "sampling error: %s\n",
                   worlds.status().ToString().c_str());
      return 1;
    }
    std::printf("\n%zu sampled worlds conditioned on Q (facts present):\n",
                worlds->worlds.size());
    for (const auto& world : worlds->worlds) {
      std::printf("  {");
      bool first = true;
      for (size_t f = 0; f < world.size(); ++f) {
        if (!world[f]) continue;
        std::printf("%s%s", first ? "" : ", ",
                    worlds->projected_db.FactToString(
                        static_cast<FactId>(f)).c_str());
        first = false;
      }
      std::printf("}\n");
    }
  }
  return 0;
}
