#include "counting/median_of_r.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pqe {

Result<CountEstimate> CountMedianOfR(
    const EstimatorConfig& config, const CounterNames& names,
    obs::ScopedSpan* span,
    const std::function<Result<CountEstimate>(const EstimatorConfig&)>&
        run_one) {
  const size_t reps = std::max<size_t>(config.repetitions, 1);
  span->AttrUint("repetitions", reps);
  if (reps == 1) {
    PQE_ASSIGN_OR_RETURN(CountEstimate est, run_one(config));
    RecordCountRun(names.metrics, est.stats, span);
    return est;
  }
  const size_t threads =
      std::min(ThreadPool::ResolveNumThreads(config.num_threads), reps);
  span->AttrUint("threads", threads);
  std::vector<CountEstimate> runs(reps);
  std::vector<Status> rep_status(reps, Status::OK());
  auto& rep_hist = obs::MetricRegistry::Global().GetHistogram(
      std::string(names.metrics) + ".rep_ns");
  ParallelFor(threads, reps, [&](size_t r) {
    // Per-rep spans only on the serial path: sessions are thread-local, so
    // worker-run reps would attach nothing, and the caller-participating
    // parallel path would trace a scheduling-dependent subset. Parallel
    // runs record per-rep timings through the (atomic) histogram instead.
    std::optional<obs::ScopedSpan> rep_span;
    if (threads == 1) {
      rep_span.emplace(names.rep_span);
      rep_span->AttrUint("rep", r);
    }
    const auto start = std::chrono::steady_clock::now();
    EstimatorConfig rep_config = config;
    rep_config.repetitions = 1;
    rep_config.seed = Rng::DeriveSeed(config.seed, r);
    Result<CountEstimate> est = run_one(rep_config);
    if (!est.ok()) {
      rep_status[r] = est.status();
      return;
    }
    if (rep_span) rep_span->AttrFloat("log2_value", est->value.Log2());
    runs[r] = est.MoveValue();
    rep_hist.Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  });
  for (const Status& st : rep_status) PQE_RETURN_IF_ERROR(st);
  CountStats aggregate;
  for (const CountEstimate& est : runs) aggregate.MergeRepetition(est.stats);
  std::sort(runs.begin(), runs.end(),
            [](const CountEstimate& a, const CountEstimate& b) {
              return a.value < b.value;
            });
  CountEstimate out = runs[runs.size() / 2];
  out.stats = aggregate;
  RecordCountRun(names.metrics, out.stats, span);
  return out;
}

}  // namespace pqe
