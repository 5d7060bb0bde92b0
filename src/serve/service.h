#ifndef PQE_SERVE_SERVICE_H_
#define PQE_SERVE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "serve/prepared_cache.h"
#include "serve/telemetry.h"
#include "serve/workload.h"

namespace pqe {
namespace serve {

/// The prepared-query serving facade: accepts EvalRequest batches and runs
/// each through PqeEngine::EvaluateRequest, the one request envelope and
/// kAuto policy. The service supplies only the engine's kFpras step: a
/// kQuery or kRpq request that resolves to the combined FPRAS is served from
/// the PreparedCache (compile once, rebind per labelling); every other
/// target/method is the engine's own, and so are deadlines, traces and the
/// pqe.engine.* counters. Responses never come back as exceptions or hangs:
/// per-request deadlines (EvalRequest::deadline_ms) are enforced
/// cooperatively inside the sampling loops, and an expired request returns
/// a kDeadlineExceeded status with its partial progress.
///
/// Determinism: a request's answer depends only on the request itself
/// (inputs, effective seed) — never on batch size, batch order, or the
/// serving thread count. Requests without an explicit seed get
/// Rng::DeriveSeed(engine.seed, request_id), so re-submitting the same
/// request reproduces the same answer bit for bit, alone or in any batch.
///
/// Thread-safe; one service instance is meant to be shared.
class PqeService {
 public:
  struct Options {
    /// Defaults applied to every request (per-request optionals override).
    PqeEngine::Options engine;
    /// Maximum prepared (query, database) skeletons retained.
    size_t cache_capacity = 32;
    /// Bound labellings each prepared query retains (LRU, min 1). Depth >1
    /// is what makes alternating labellings and delta rebinds cheap.
    size_t bind_cache_capacity = 4;
    /// Threads used to fan a batch out (0 = auto: $PQE_THREADS, else 1).
    /// When a batch runs on >1 threads, each request's inner sampling runs
    /// single-threaded — the shared pool is not reentrant — which changes
    /// nothing about the answers (see docs/parallelism.md).
    size_t num_threads = 0;
    /// Opt-in workload capture: when non-empty, every request is appended
    /// to this JSONL file (see serve/workload.h). Open failures are
    /// reported once via capture_status() and disable capture.
    std::string capture_path;
    /// Entries retained in the slow-query log (0 disables it).
    size_t slow_log_capacity = 8;
  };

  explicit PqeService(Options options);
  PqeService() : PqeService(Options{}) {}

  PqeService(const PqeService&) = delete;
  PqeService& operator=(const PqeService&) = delete;

  /// Serves one request (request_id 0 stays 0; no batch index to borrow).
  EvalResponse Evaluate(const EvalRequest& request) const;

  /// Serves a batch, fanning out over the shared thread pool. Response i
  /// answers request i. Requests with request_id == 0 get their batch index
  /// as effective id (seeds stay per-request deterministic).
  std::vector<EvalResponse> EvaluateBatch(
      const std::vector<EvalRequest>& requests) const;

  const Options& options() const { return options_; }
  const PreparedCache& cache() const { return *cache_; }

  /// Aggregated request telemetry: counts by outcome and cache class,
  /// per-stage latency quantiles (p50/p95/p99), and the slow-query log.
  /// Lock-cheap; safe to call while requests are in flight (relaxed-atomics
  /// contract, see obs::MetricRegistry).
  ServiceStats StatsSnapshot() const { return telemetry_.Snapshot(); }

  /// Zeroes the telemetry aggregates (counts, stage histograms, slow-query
  /// log and its admission floor). Epoch boundary for long-lived services:
  /// warmup traffic stops polluting steady-state quantiles.
  void ResetStats() const { telemetry_.Reset(); }

  /// OK when capture is off or the capture file opened; the open error
  /// otherwise (requests still serve, they just aren't recorded).
  const Status& capture_status() const { return capture_status_; }

  /// Outcome of one ApplyUpdate call, aggregated over every resident
  /// prepared query.
  struct UpdateStats {
    size_t facts = 0;             // delta entries written into the pdb
    size_t prepared_visited = 0;  // prepared queries the delta was pushed to
    size_t delta_rebinds = 0;     // binds refreshed by the in-place patch
    size_t full_rebinds = 0;      // binds that fell back to full expansion
    size_t untouched = 0;         // queries with nothing to refresh (never
                                  // bound, or already bound to the result)
  };

  /// Applies a fact-probability delta: writes the new probabilities into
  /// `pdb` (the database later requests will carry), then pushes the delta
  /// to every resident prepared query so its bind is refreshed eagerly —
  /// by the in-place gadget patch when the labelling's denominators are
  /// unchanged, by a full rebind otherwise. After ApplyUpdate returns, a
  /// request over the updated pdb is a warm bind hit, and its answer is
  /// bit-identical to a cold evaluation of the updated database (the
  /// determinism contract; enforced by delta_rebind_test and E14).
  Result<UpdateStats> ApplyUpdate(ProbabilisticDatabase* pdb,
                                  const LabelDelta& delta) const;

 private:
  /// Serves one request through `engine`'s envelope, with ServeFpras as its
  /// kFpras step, and records the request's telemetry and capture.
  EvalResponse EvaluateOne(const PqeEngine& engine, const EvalRequest& request,
                           uint64_t effective_id) const;

  /// The kFpras step the service hands the engine: looks the request's
  /// query up in the PreparedCache (compiling it on a miss) and evaluates
  /// the prepared query, filling `telemetry`'s stage timings and cache
  /// class as it goes.
  Result<PqeAnswer> ServeFpras(const EvalRequest& request,
                               const PqeEngine::Options& opts,
                               const EstimatorConfig& config,
                               RequestTelemetry* telemetry) const;

  void CaptureRequest(const EvalRequest& request,
                      const PqeEngine::Options& opts,
                      const EvalResponse& resp) const;

  Options options_;
  /// Serves lone requests with the service's engine options.
  PqeEngine engine_;
  /// Serves the members of a batch that fans out: the same options with one
  /// sampling thread, since the shared pool is not reentrant.
  PqeEngine batch_engine_;
  std::unique_ptr<PreparedCache> cache_;
  mutable ServiceTelemetry telemetry_;
  std::unique_ptr<WorkloadRecorder> recorder_;
  Status capture_status_;
};

}  // namespace serve
}  // namespace pqe

#endif  // PQE_SERVE_SERVICE_H_
