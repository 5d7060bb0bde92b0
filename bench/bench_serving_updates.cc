// E14 — delta-aware incremental rebinds (docs/serving.md "Incremental
// maintenance"): the update-heavy serving regime, where fact probabilities
// drift while a prepared query keeps serving.
//
//   bench_serving_updates [--smoke] [--metrics_out=BENCH_serving_updates.json]
//
// Two planes, both single-threaded and seeded identically:
//
//   core    — median time of a full gadget bind (BindPqeAutomaton /
//             BindPathPqeNfa) vs a delta rebind (RebindPqeAutomaton /
//             RebindPathPqeNfa) of the same labelling after a single-fact
//             numerator update. The acceptance gate: on the string route
//             (the E4/E12 serving workload) the delta patch must be at
//             least 10x faster than re-running the full expansion; the
//             tree route is floored at 2x and baselined (its clone is
//             bandwidth-bound — see MeasureTreeCell).
//   service — PqeService::ApplyUpdate pushing single-fact, multi-fact, and
//             degenerate (p -> 0, p -> 1) deltas through a resident
//             prepared query, in BOTH sampling-kernel modes. Every
//             delta-rebound answer is checked bit-identical (memcmp on the
//             probability) to a cold engine evaluation of the updated
//             database, and the captured workload — update events included
//             — is replayed through a fresh service and must come back
//             clean.
//
// Gauges: pqe.bench.serving_updates.<cell>.{full_bind_us,delta_rebind_us,
// speedup_delta_rebind,patched_slots} for the core cells (path, tree) and
// pqe.bench.serving_updates.service.<kernel>.{updates,delta_rebinds,
// full_rebinds,update_ms} for the service plane; --smoke shrinks trial
// counts for CI (cell shapes stay identical so bench_compare can gate the
// smoke output against the committed baseline).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/path_pqe.h"
#include "core/pqe.h"
#include "core/projection.h"
#include "cq/builders.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "serve/workload.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace pqe {
namespace {

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Median(std::vector<double> xs) {
  PQE_CHECK(!xs.empty());
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// A single-fact numerator update of projected fact `index`, denominator
// preserved (the patchable shape — see core/gadget_bind.h PqeBindLayout).
std::vector<Probability> SingleFactUpdate(const std::vector<Probability>& probs,
                                          size_t index) {
  PQE_CHECK(index < probs.size());
  std::vector<Probability> next = probs;
  next[index].num = (next[index].num + 1) % (next[index].den + 1);
  return next;
}

void RecordCell(const std::string& cell, double full_us, double delta_us,
                size_t patched_slots, double gate_floor) {
  const double speedup = full_us / delta_us;
  auto& reg = obs::MetricRegistry::Global();
  const std::string prefix = "pqe.bench.serving_updates." + cell;
  reg.GetGauge(prefix + ".full_bind_us").Set(full_us);
  reg.GetGauge(prefix + ".delta_rebind_us").Set(delta_us);
  reg.GetGauge(prefix + ".speedup_delta_rebind").Set(speedup);
  reg.GetGauge(prefix + ".patched_slots")
      .Set(static_cast<double>(patched_slots));
  std::printf("  %-6s %10.1f %10.1f %8.1fx  (%zu slots patched)\n",
              cell.c_str(), full_us, delta_us, speedup, patched_slots);
  PQE_CHECK(speedup >= gate_floor);
}

// Core plane, string route: full BindPathPqeNfa vs RebindPathPqeNfa after a
// single-fact numerator update, medians over `trials` runs.
void MeasurePathCell(size_t trials) {
  // Width/length chosen from a size sweep: large enough that the full
  // gadget expansion dominates fixed costs, small enough that the delta
  // clone stays cache-resident — the regime serving workloads live in.
  auto qi = MakePathQuery(4).MoveValue();
  LayeredGraphOptions gopt;
  gopt.width = 4;
  gopt.density = 0.6;
  gopt.seed = 6;
  auto db = MakeLayeredPathDatabase(qi, gopt).MoveValue();
  ProbabilityModel pm;
  pm.max_denominator = 8;
  pm.seed = 100;
  const ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);

  auto skeleton = BuildPathPqeSkeleton(qi.query, pdb.database()).MoveValue();
  auto probs =
      ProjectedFactProbabilities(skeleton.original_fact, pdb).MoveValue();
  const auto prior = BindPathPqeNfa(skeleton, probs).MoveValue();
  const std::vector<Probability> next =
      SingleFactUpdate(probs, probs.size() / 2);

  // Structural check once, outside the timing loop (DebugString allocates
  // megabytes — interleaving it with the timed calls pollutes the cache):
  // the patch is the canonical writer, so patched == fresh, structurally.
  size_t patched = 0;
  {
    auto full = BindPathPqeNfa(skeleton, next).MoveValue();
    auto delta = RebindPathPqeNfa(prior, probs, next, &patched).MoveValue();
    PQE_CHECK(delta.nfa.DebugString() == full.nfa.DebugString());
    PQE_CHECK(delta.word_length == full.word_length);
    PQE_CHECK(patched > 0);
  }
  std::vector<double> full_us, delta_us;
  for (size_t t = 0; t < trials; ++t) {
    auto t0 = std::chrono::steady_clock::now();
    auto full = BindPathPqeNfa(skeleton, next);
    full_us.push_back(MicrosSince(t0));
    PQE_CHECK(full.ok());
    t0 = std::chrono::steady_clock::now();
    auto delta = RebindPathPqeNfa(prior, probs, next, &patched);
    delta_us.push_back(MicrosSince(t0));
    PQE_CHECK(delta.ok());
  }
  // The acceptance gate: on the string route — the E4/E12 serving workload
  // whose 0.94x rebind "speedup" motivated delta rebinds — patching one
  // fact's gadget slots must beat re-running the full expansion by >= 10x.
  RecordCell("path", Median(full_us), Median(delta_us), patched,
             /*gate_floor=*/10.0);
}

// Core plane, generic tree route: full BindPqeAutomaton vs
// RebindPqeAutomaton over a star query.
void MeasureTreeCell(size_t trials) {
  auto qi = MakeStarQuery(3).MoveValue();
  StarDataOptions sopt;
  sopt.hubs = 4;
  sopt.spokes_per_hub = 4;
  sopt.density = 0.7;
  sopt.seed = 7;
  auto db = MakeStarDatabase(qi, sopt).MoveValue();
  ProbabilityModel pm;
  // Denominators up to 16 deepen the comparator gadgets: the full
  // expansion's per-transition construction cost grows faster than the
  // delta clone's flat copy, which is the asymmetry this cell measures.
  pm.max_denominator = 16;
  pm.seed = 100;
  const ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);

  UrConstructionOptions uopt;
  auto skeleton = BuildPqeSkeleton(qi.query, pdb.database(), uopt).MoveValue();
  auto probs =
      ProjectedFactProbabilities(skeleton.original_fact, pdb).MoveValue();
  const auto prior = BindPqeAutomaton(skeleton, probs).MoveValue();
  const std::vector<Probability> next =
      SingleFactUpdate(probs, probs.size() / 2);

  size_t patched = 0;
  {
    auto full = BindPqeAutomaton(skeleton, next).MoveValue();
    auto delta = RebindPqeAutomaton(prior, probs, next, &patched).MoveValue();
    PQE_CHECK(delta.weighted.DebugString() == full.weighted.DebugString());
    PQE_CHECK(delta.tree_size == full.tree_size);
    PQE_CHECK(patched > 0);
  }
  std::vector<double> full_us, delta_us;
  for (size_t t = 0; t < trials; ++t) {
    auto t0 = std::chrono::steady_clock::now();
    auto full = BindPqeAutomaton(skeleton, next);
    full_us.push_back(MicrosSince(t0));
    PQE_CHECK(full.ok());
    t0 = std::chrono::steady_clock::now();
    auto delta = RebindPqeAutomaton(prior, probs, next, &patched);
    delta_us.push_back(MicrosSince(t0));
    PQE_CHECK(delta.ok());
  }
  // The generic tree route's delta rebind is clone-bandwidth-bound — the
  // Nfta copy re-bases every transition's child span into the new arena —
  // so its ratio sits near 4x rather than the string route's ~40x. The
  // hard floor here is a sanity bound; the committed baseline's
  // speedup_delta_rebind gauge (bench_compare, 25% threshold) guards the
  // actual level against regression.
  RecordCell("tree", Median(full_us), Median(delta_us), patched,
             /*gate_floor=*/2.0);
}

std::string CaptureFilePath(const char* kernel) {
  const char* tmpdir = std::getenv("TMPDIR");
  std::string dir = tmpdir != nullptr ? tmpdir : "/tmp";
  return dir + "/pqe_bench_serving_updates_" + kernel + ".jsonl";
}

// Service plane: a resident prepared query rides through single-fact,
// multi-fact, and degenerate deltas via ApplyUpdate; every post-update
// answer must be bit-identical to a cold evaluation of the updated
// database, and the capture (updates included) must replay clean.
void ServiceUpdateCell(KernelMode kernel) {
  const char* kname = KernelModeToString(kernel);
  auto qi = MakePathQuery(4).MoveValue();
  LayeredGraphOptions gopt;
  gopt.width = 3;
  gopt.density = 0.6;
  gopt.seed = 3;
  auto db = MakeLayeredPathDatabase(qi, gopt).MoveValue();
  ProbabilityModel pm;
  pm.max_denominator = 8;
  pm.seed = 100;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
  const ProbabilisticDatabase pdb0 = pdb;  // pre-update state, for replay

  auto opts = PqeEngine::Options::Builder()
                  .Method(PqeMethod::kFpras)
                  .Epsilon(0.25)
                  .Seed(0xbe7c)
                  .PoolSize(48)
                  .Repetitions(1)
                  .NumThreads(1)
                  .Kernels(kernel)
                  .Build();
  PQE_CHECK(opts.ok());

  const std::string capture_path = CaptureFilePath(kname);
  std::remove(capture_path.c_str());
  serve::PqeService::Options sopt;
  sopt.engine = *opts;
  sopt.num_threads = 1;
  sopt.capture_path = capture_path;
  serve::PqeService service(sopt);
  PQE_CHECK(service.capture_status().ok());
  PqeEngine cold_engine(*opts);

  auto serve_and_check = [&](uint64_t id) {
    EvalRequest r = EvalRequest::ForQuery(qi.query, pdb);
    r.request_id = id;
    r.seed = Rng::DeriveSeed(opts->seed, id);
    const std::vector<EvalResponse> served = service.EvaluateBatch({r});
    PQE_CHECK(served.size() == 1 && served[0].status.ok());
    const EvalResponse cold = cold_engine.EvaluateRequest(r);
    PQE_CHECK(cold.status.ok());
    // The bit-identity gate: delta-rebound serving must reproduce the cold
    // evaluation of the updated database exactly, not approximately.
    PQE_CHECK(std::memcmp(&served[0].answer.probability,
                          &cold.answer.probability, sizeof(double)) == 0);
  };

  // First serve binds the initial labelling (the delta seed).
  serve_and_check(1);

  // Single-fact, multi-fact, and degenerate (p -> 0, p -> 1) updates — all
  // denominator-preserving, so each one is served by the in-place patch.
  std::vector<serve::LabelDelta> deltas;
  {
    serve::LabelDelta single;
    const Probability p0 = pdb.probability(0);
    single.facts = {0};
    single.new_probs = {Probability{(p0.num + 1) % (p0.den + 1), p0.den}};
    deltas.push_back(single);

    serve::LabelDelta multi;
    for (FactId f = 1; f <= 3 && f < pdb.NumFacts(); ++f) {
      const Probability p = pdb.probability(f);
      multi.facts.push_back(f);
      multi.new_probs.push_back(Probability{(p.num + 2) % (p.den + 1), p.den});
    }
    deltas.push_back(multi);

    serve::LabelDelta degenerate;
    const Probability pa = pdb.probability(0);
    const Probability pb = pdb.probability(1);
    degenerate.facts = {0, 1};
    degenerate.new_probs = {Probability{0, pa.den},
                            Probability{pb.den, pb.den}};
    deltas.push_back(degenerate);
  }

  size_t delta_rebinds = 0, full_rebinds = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t k = 0; k < deltas.size(); ++k) {
    auto stats = service.ApplyUpdate(&pdb, deltas[k]);
    PQE_CHECK(stats.ok());
    delta_rebinds += stats->delta_rebinds;
    full_rebinds += stats->full_rebinds;
    serve_and_check(100 + k);
  }
  const double update_ms = MicrosSince(t0) / 1000.0;
  // Denominators never changed, so no update may have fallen back to the
  // full gadget expansion.
  PQE_CHECK(delta_rebinds == deltas.size());
  PQE_CHECK(full_rebinds == 0);

  auto& reg = obs::MetricRegistry::Global();
  const std::string prefix =
      std::string("pqe.bench.serving_updates.service.") + kname;
  reg.GetGauge(prefix + ".updates").Set(static_cast<double>(deltas.size()));
  reg.GetGauge(prefix + ".delta_rebinds")
      .Set(static_cast<double>(delta_rebinds));
  reg.GetGauge(prefix + ".full_rebinds")
      .Set(static_cast<double>(full_rebinds));
  reg.GetGauge(prefix + ".update_ms").Set(update_ms);
  std::printf(
      "  service[%s]: %zu updates in %.2f ms, delta_rebinds=%zu "
      "full_rebinds=%zu\n",
      kname, deltas.size(), update_ms, delta_rebinds, full_rebinds);

  // Replay the capture — update events included — through a fresh service
  // from the PRE-update database: the segmented replay must re-apply every
  // delta and match every answer bit for bit.
  auto records = serve::LoadWorkloadFile(capture_path);
  PQE_CHECK(records.ok());
  serve::PqeService::Options ropt = sopt;
  ropt.capture_path.clear();
  serve::PqeService replay_service(ropt);
  auto report = serve::ReplayWorkload(replay_service, pdb0, *records);
  PQE_CHECK(report.ok());
  std::printf("  service[%s]: replay %s\n", kname, report->Summary().c_str());
  for (const std::string& detail : report->mismatch_details) {
    std::printf("    %s\n", detail.c_str());
  }
  PQE_CHECK(report->updates_applied == deltas.size());
  PQE_CHECK(report->Clean());
  std::remove(capture_path.c_str());
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
  const size_t trials = smoke ? 9 : 25;
  std::printf(
      "E14 — delta-aware incremental rebinds: patch vs full gadget "
      "expansion\n"
      "====================================================================="
      "\n\n%s",
      smoke ? "smoke mode: reduced trial count\n\n" : "\n");
  std::printf("  %-6s %10s %10s %9s\n", "cell", "full_us", "delta_us",
              "speedup");
  MeasurePathCell(trials);
  MeasureTreeCell(trials);
  std::printf("\n");
  ServiceUpdateCell(KernelMode::kExact);
  ServiceUpdateCell(KernelMode::kFast);
  std::printf(
      "\ndeterminism: every delta-rebound answer matched its cold twin bit "
      "for bit (both kernel modes)\n");
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
