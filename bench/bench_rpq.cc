// E16 — Regular path queries (docs/rpq.md): the RPQ target end to end.
//
//   bench_rpq [--smoke] [--metrics_out=BENCH_rpq.json]
//
// Four cells, all seeded and single-run deterministic:
//   linear  — a concatenation-only regex over E4 layered path data versus
//             the directly-issued path query. The lowering routes both
//             through the identical BuildPathPqeSkeleton/EstimatePathSkeleton
//             tail, so the answers must be bit-identical — checked here at
//             1 and 4 threads.
//   reach   — a reachability regex with star + alternation, a/(a|b)*/a, over
//             a labelled knowledge graph: the product construction proper.
//             Checks the estimate against the exact string-counting oracle
//             (RpqExact).
//   tworpq  — a 2RPQ (inverse label) on the same graph: inverse edges break
//             the scan order, so the engine's kAuto cascade lands on the
//             lineage route. The cell times the cascade and checks the
//             answer against exact world enumeration.
//   serve   — the serving regime: one RPQ arriving repeatedly. Cold
//             per-call engine evaluation versus PqeService's prepared
//             cache + answer memo; every warm answer must equal its cold
//             twin bit for bit (both routes share CompileRpqSkeleton).
// Cells are recorded as gauges pqe.bench.rpq.<cell>.*; the serving
// speedup_warm gauge, the median of 5 cold/warm pairs, is the one
// bench_compare gates. --smoke shrinks the workload for CI.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/engine.h"
#include "cq/builders.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "rpq/eval.h"
#include "rpq/regex.h"
#include "serve/service.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace pqe {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

PqeEngine::Options RpqOptions(size_t threads) {
  auto opts = PqeEngine::Options::Builder()
                  .Method(PqeMethod::kFpras)
                  .Epsilon(0.25)
                  .Seed(0x99e6)
                  .PoolSize(48)
                  .Repetitions(1)
                  .NumThreads(threads)
                  .Build();
  PQE_CHECK(opts.ok());
  return *opts;
}

ProbabilisticDatabase MakeKgPdb(uint32_t layers, uint32_t width,
                                uint64_t seed) {
  KgReachabilityOptions kopt;
  kopt.layers = layers;
  kopt.width = width;
  kopt.density = 0.5;
  kopt.seed = seed;
  auto kg = MakeKgReachabilityDatabase(kopt).MoveValue();
  ProbabilityModel pm;
  pm.max_denominator = 8;
  pm.seed = seed + 1;
  return AttachProbabilities(std::move(kg), pm);
}

// Concatenation-only regex == linear path query, bit for bit: the lowering
// sends the RPQ through the same skeleton the path route builds, so the two
// answers must share every bit across thread counts.
void LinearCell(uint32_t width, size_t rounds) {
  auto qi = MakePathQuery(4).MoveValue();
  LayeredGraphOptions gopt;
  gopt.width = width;
  gopt.density = 0.6;
  gopt.seed = width;
  auto db = MakeLayeredPathDatabase(qi, gopt).MoveValue();
  ProbabilityModel pm;
  pm.max_denominator = 8;
  pm.seed = 100;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);

  std::string text;
  for (size_t i = 0; i < qi.query.NumAtoms(); ++i) {
    if (!text.empty()) text += "/";
    text += qi.schema.Name(qi.query.atom(i).relation);
  }
  auto rq = rpq::RpqQuery::Parse(text).MoveValue();

  double rpq_ms = 0.0;
  double path_ms = 0.0;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    PqeEngine engine(RpqOptions(threads));
    EvalResponse via_rpq;
    EvalResponse via_path;
    auto t0 = std::chrono::steady_clock::now();
    for (size_t r = 0; r < rounds; ++r) {
      EvalRequest req = EvalRequest::ForRpq(rq, pdb);
      req.seed = Rng::DeriveSeed(0x11a3, r);
      via_rpq = engine.EvaluateRequest(req);
      PQE_CHECK(via_rpq.status.ok());
    }
    rpq_ms += MillisSince(t0);
    t0 = std::chrono::steady_clock::now();
    for (size_t r = 0; r < rounds; ++r) {
      EvalRequest req = EvalRequest::ForQuery(qi.query, pdb);
      req.seed = Rng::DeriveSeed(0x11a3, r);
      via_path = engine.EvaluateRequest(req);
      PQE_CHECK(via_path.status.ok());
    }
    path_ms += MillisSince(t0);
    // The acceptance bit: memcmp, not ==, so -0.0/NaN drift would fail.
    PQE_CHECK(std::memcmp(&via_rpq.answer.probability,
                          &via_path.answer.probability, sizeof(double)) == 0);
  }
  auto& reg = obs::MetricRegistry::Global();
  const std::string prefix = "pqe.bench.rpq.linear.w" + std::to_string(width);
  reg.GetGauge(prefix + ".rpq_ms").Set(rpq_ms);
  reg.GetGauge(prefix + ".path_ms").Set(path_ms);
  reg.GetGauge(prefix + ".parity").Set(1.0);
  std::printf("  %-10s %6zu rnd  rpq %8.1f ms  path %8.1f ms  bit-identical\n",
              ("linear.w" + std::to_string(width)).c_str(), rounds, rpq_ms,
              path_ms);
}

// Star + alternation over the labelled KG: the product construction, the
// estimate checked against the exact string-counting oracle.
void ReachCell(uint32_t layers, uint32_t width, size_t rounds) {
  ProbabilisticDatabase pdb = MakeKgPdb(layers, width, 7);
  auto rq = rpq::RpqQuery::Parse("a/(a|b)*/a").MoveValue();
  const double exact = rpq::RpqExact(rq, pdb).MoveValue().ToDouble();
  PQE_CHECK(exact > 0.0);  // the forced spine keeps the cell non-degenerate

  auto& reg = obs::MetricRegistry::Global();
  const std::string prefix = "pqe.bench.rpq.reach.kg";
  PqeEngine engine(RpqOptions(1));
  EvalResponse resp;
  auto t0 = std::chrono::steady_clock::now();
  for (size_t r = 0; r < rounds; ++r) {
    EvalRequest req = EvalRequest::ForRpq(rq, pdb);
    req.seed = Rng::DeriveSeed(0x2ea0, r);
    resp = engine.EvaluateRequest(req);
    PQE_CHECK(resp.status.ok());
  }
  const double ms = MillisSince(t0);
  const double rel_err = std::fabs(resp.answer.probability - exact) / exact;
  // One fixed-seed run of an (ε=0.25, δ=1/4) estimator: deterministic,
  // and this seed lands comfortably inside the accuracy band.
  PQE_CHECK(rel_err <= 0.5);
  reg.GetGauge(prefix + ".ms").Set(ms);
  reg.GetGauge(prefix + ".rel_err").Set(rel_err);
  std::printf("  %-10s %6zu rnd  %8.1f ms  p=%.6f exact=%.6f rel_err=%.3f\n",
              "reach.kg", rounds, ms, resp.answer.probability, exact,
              rel_err);
  reg.GetGauge(prefix + ".probability_exact").Set(exact);
}

// 2RPQ: an inverse label makes consecutive product edges share a layer, so
// the scan order has no consistent topological extension and the kAuto
// cascade lands on the lineage route. Checked against world enumeration.
void TwoRpqCell(size_t rounds) {
  ProbabilisticDatabase pdb = MakeKgPdb(/*layers=*/2, /*width=*/2, 11);
  auto rq = rpq::RpqQuery::Parse("a/^a").MoveValue();
  const double exact =
      rpq::ExactRpqProbabilityByEnumeration(rq, pdb).MoveValue().ToDouble();

  auto opts = PqeEngine::Options::Builder()
                  .Method(PqeMethod::kAuto)
                  .Epsilon(0.25)
                  .Seed(0x2299)
                  .NumThreads(1)
                  .Build();
  PQE_CHECK(opts.ok());
  PqeEngine engine(*opts);
  EvalResponse resp;
  auto t0 = std::chrono::steady_clock::now();
  for (size_t r = 0; r < rounds; ++r) {
    EvalRequest req = EvalRequest::ForRpq(rq, pdb);
    req.seed = Rng::DeriveSeed(0x2290, r);
    resp = engine.EvaluateRequest(req);
    PQE_CHECK(resp.status.ok());
  }
  const double ms = MillisSince(t0);
  // The small-instance cascade resolves exactly (enumeration or exact
  // lineage), so the answer matches the oracle bit for bit.
  PQE_CHECK(std::fabs(resp.answer.probability - exact) <= 1e-12);
  auto& reg = obs::MetricRegistry::Global();
  reg.GetGauge("pqe.bench.rpq.tworpq.kg.eval_ms").Set(ms);
  reg.GetGauge("pqe.bench.rpq.tworpq.kg.probability").Set(
      resp.answer.probability);
  std::printf("  %-10s %6zu rnd  cascade %6.1f ms  p=%.6f (== enumeration)\n",
              "tworpq.kg", rounds, ms, resp.answer.probability);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Serving regime: the same RPQ request over and over. Warm answers replay
// from the prepared cache + answer memo and must equal the cold engine's
// answers bit for bit (both routes share CompileRpqSkeleton + the bind/count
// tail). Each leg takes a few milliseconds, so one cold/warm pair is noise
// against the gate's 25% margin: the cell runs kServeTrials independent
// pairs (a fresh engine and a fresh service each) and reports the medians.
constexpr size_t kServeTrials = 5;

void ServeCell(uint32_t layers, uint32_t width, size_t requests,
               bool gate_speedup) {
  ProbabilisticDatabase pdb = MakeKgPdb(layers, width, 13);
  auto rq = rpq::RpqQuery::Parse("a/(a|b)*/a").MoveValue();
  const PqeEngine::Options opts = RpqOptions(1);

  std::vector<EvalRequest> reqs;
  reqs.reserve(requests);
  for (size_t i = 0; i < requests; ++i) {
    EvalRequest r = EvalRequest::ForRpq(rq, pdb);
    r.request_id = i + 1;
    r.seed = Rng::DeriveSeed(opts.seed, 1);  // identical requests
    reqs.push_back(r);
  }

  std::vector<double> cold_trials_ms;
  std::vector<double> warm_trials_ms;
  std::vector<double> speedups;
  for (size_t trial = 0; trial < kServeTrials; ++trial) {
    PqeEngine engine(opts);
    std::vector<EvalResponse> cold(requests);
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < requests; ++i) {
      cold[i] = engine.EvaluateRequest(reqs[i]);
    }
    const double cold_ms = MillisSince(t0);

    serve::PqeService::Options sopt;
    sopt.engine = opts;
    sopt.num_threads = 1;
    serve::PqeService service(sopt);
    t0 = std::chrono::steady_clock::now();
    const std::vector<EvalResponse> warm = service.EvaluateBatch(reqs);
    const double warm_ms = MillisSince(t0);

    for (size_t i = 0; i < requests; ++i) {
      PQE_CHECK(cold[i].status.ok());
      PQE_CHECK(warm[i].status.ok());
      PQE_CHECK(std::memcmp(&warm[i].answer.probability,
                            &cold[i].answer.probability,
                            sizeof(double)) == 0);
    }
    const serve::PreparedCache::Stats stats = service.cache().stats();
    PQE_CHECK(stats.misses == 1);  // one compile for the whole batch
    PQE_CHECK(stats.hits == requests - 1);
    cold_trials_ms.push_back(cold_ms);
    warm_trials_ms.push_back(warm_ms);
    speedups.push_back(cold_ms / warm_ms);
  }

  const double cold_ms = Median(cold_trials_ms);
  const double warm_ms = Median(warm_trials_ms);
  const double speedup_warm = Median(speedups);
  auto& reg = obs::MetricRegistry::Global();
  const std::string prefix = "pqe.bench.rpq.serve.kg";
  reg.GetGauge(prefix + ".cold_ms").Set(cold_ms);
  reg.GetGauge(prefix + ".warm_ms").Set(warm_ms);
  reg.GetGauge(prefix + ".speedup_warm").Set(speedup_warm);
  reg.GetGauge(prefix + ".requests").Set(static_cast<double>(requests));
  std::printf("  %-10s %6zu req  cold %8.1f ms  warm %8.1f ms  %8.2fx "
              "(medians of %zu trials)\n",
              "serve.kg", requests, cold_ms, warm_ms, speedup_warm,
              kServeTrials);
  if (gate_speedup) {
    // Warm RPQ serving must beat cold per-call evaluation by at least 5x,
    // same bar as the conjunctive serving bench (E12).
    PQE_CHECK(speedup_warm >= 5.0);
  }
}

}  // namespace
}  // namespace pqe

int main(int argc, char** argv) {
  setvbuf(stdout, nullptr, _IONBF, 0);
  using namespace pqe;
  const std::string metrics_out = obs::ConsumeMetricsOutFlag(&argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::printf(
      "E16 — regular path queries: lowering parity, product FPRAS, 2RPQ "
      "cascade, serving\n"
      "====================================================================="
      "\n\n%s",
      smoke ? "smoke mode: reduced rounds\n\n" : "\n");
  if (smoke) {
    LinearCell(/*width=*/3, /*rounds=*/2);
    ReachCell(/*layers=*/3, /*width=*/2, /*rounds=*/2);
    TwoRpqCell(/*rounds=*/2);
    ServeCell(/*layers=*/3, /*width=*/3, /*requests=*/24,
              /*gate_speedup=*/false);
  } else {
    LinearCell(/*width=*/3, /*rounds=*/8);
    LinearCell(/*width=*/4, /*rounds=*/8);
    ReachCell(/*layers=*/3, /*width=*/2, /*rounds=*/8);
    TwoRpqCell(/*rounds=*/8);
    ServeCell(/*layers=*/3, /*width=*/3, /*requests=*/24,
              /*gate_speedup=*/true);
  }
  std::printf(
      "\ndeterminism: every lowered/served answer matched its twin bit for "
      "bit\n");
  if (!metrics_out.empty()) {
    Status status = obs::WriteMetricsJsonFile(metrics_out);
    if (!status.ok()) {
      std::fprintf(stderr, "--metrics_out: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  return 0;
}
