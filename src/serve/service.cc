#include "serve/service.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpq/regex.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace pqe {
namespace serve {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// The slow-log line: the stage breakdown, then the first lines of the
// request's trace when one was collected.
std::string BuildSpanExcerpt(const RequestTelemetry& t,
                             const EvalResponse& resp) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "class=%s lookup=%.1fms compile=%.1fms bind=%.1fms "
                "estimate=%.1fms",
                CacheClassName(t.cache_class),
                static_cast<double>(t.cache_lookup_ns) / 1e6,
                static_cast<double>(t.compile_ns) / 1e6,
                static_cast<double>(t.bind_ns) / 1e6,
                static_cast<double>(t.estimate_ns) / 1e6);
  std::string excerpt = buf;
  if (resp.answer.trace != nullptr) {
    constexpr size_t kMaxTraceExcerpt = 240;
    std::string text = obs::RenderTraceText(*resp.answer.trace);
    if (text.size() > kMaxTraceExcerpt) {
      text.resize(kMaxTraceExcerpt);
      text += "...";
    }
    excerpt += " | ";
    excerpt += text;
  }
  return excerpt;
}

// The shared pool is not reentrant: when a batch fans out, each request's
// inner sampling is pinned to one thread. Answers don't change — every
// sampling layer is bit-identical across thread counts.
PqeEngine::Options OneSamplingThread(PqeEngine::Options options) {
  options.num_threads = 1;
  return options;
}

}  // namespace

PqeService::PqeService(Options options)
    : options_(std::move(options)),
      engine_(options_.engine),
      batch_engine_(OneSamplingThread(options_.engine)),
      cache_(std::make_unique<PreparedCache>(options_.cache_capacity,
                                             options_.bind_cache_capacity)),
      telemetry_(options_.slow_log_capacity) {
  if (!options_.capture_path.empty()) {
    auto recorder = WorkloadRecorder::Open(options_.capture_path);
    if (recorder.ok()) {
      recorder_ = std::move(*recorder);
    } else {
      capture_status_ = recorder.status();
    }
  }
}

EvalResponse PqeService::Evaluate(const EvalRequest& request) const {
  return EvaluateOne(engine_, request, request.request_id);
}

std::vector<EvalResponse> PqeService::EvaluateBatch(
    const std::vector<EvalRequest>& requests) const {
  std::vector<EvalResponse> out(requests.size());
  const size_t threads = ThreadPool::ResolveNumThreads(options_.num_threads);
  const PqeEngine& engine =
      threads > 1 && requests.size() > 1 ? batch_engine_ : engine_;
  ParallelFor(threads, requests.size(), [&](size_t i) {
    const EvalRequest& req = requests[i];
    const uint64_t id =
        req.request_id != 0 ? req.request_id : static_cast<uint64_t>(i);
    out[i] = EvaluateOne(engine, req, id);
  });
  return out;
}

EvalResponse PqeService::EvaluateOne(const PqeEngine& engine,
                                     const EvalRequest& request,
                                     uint64_t effective_id) const {
  const auto start = std::chrono::steady_clock::now();
  // Seedless requests get a seed derived from their id, so batch members
  // are independent yet individually reproducible.
  EvalRequest served = request;
  served.request_id = effective_id;
  if (!served.seed.has_value()) {
    served.seed = Rng::DeriveSeed(options_.engine.seed, effective_id);
  }

  RequestTelemetry telemetry;
  telemetry.request_id = effective_id;
  // A request the prepared route does not answer keeps the kDelegated
  // class: another method, another target, or an RPQ the engine's kAuto
  // cascade moved to lineage.
  EvalResponse resp = engine.EvaluateRequest(
      served, [&](const EvalRequest& r, const PqeEngine::Options& opts,
                  const EstimatorConfig& config) {
        return ServeFpras(r, opts, config, &telemetry);
      });
  if (resp.answer.count_stats.has_value()) {
    telemetry.samples = resp.answer.count_stats->attempts;
  }
  telemetry.status = resp.status.code();
  telemetry.deadline_exceeded = resp.deadline_exceeded;
  telemetry.progress = resp.progress;
  telemetry.total_ns = ElapsedNs(start);
  telemetry.span_excerpt = BuildSpanExcerpt(telemetry, resp);
  telemetry_.Record(std::move(telemetry));

  if (recorder_ != nullptr) {
    CaptureRequest(served, engine.ResolveOptions(served), resp);
  }

  auto& registry = obs::MetricRegistry::Global();
  registry.GetCounter("serve.requests").Increment();
  if (resp.deadline_exceeded) {
    registry.GetCounter("serve.deadline_exceeded").Increment();
  }
  // Whole microseconds, rounded: a warm (answer-memo) request takes tens
  // of µs and would read 0 in whole milliseconds.
  registry.GetHistogram("serve.request_us")
      .Observe(static_cast<uint64_t>(std::llround(resp.elapsed_ms * 1000.0)));
  return resp;
}

Result<PqeAnswer> PqeService::ServeFpras(const EvalRequest& request,
                                         const PqeEngine::Options& opts,
                                         const EstimatorConfig& config,
                                         RequestTelemetry* telemetry) const {
  PreparedCache::LookupResult lookup;
  const auto lookup_start = std::chrono::steady_clock::now();
  Result<std::shared_ptr<const PreparedQuery>> prepared =
      [&]() -> Result<std::shared_ptr<const PreparedQuery>> {
    if (request.target == EvalRequest::Target::kRpq) {
      return cache_->GetOrPrepareRpq(*request.rpq, request.pdb->database(),
                                     &lookup);
    }
    UrConstructionOptions ur_opts;
    ur_opts.max_width = opts.max_width;
    return cache_->GetOrPrepare(*request.query, request.pdb->database(),
                                ur_opts, &lookup);
  }();
  telemetry->compile_ns = lookup.compile_ns;
  // The probe itself, with this caller's compile time (if any) carved out.
  const uint64_t lookup_elapsed = ElapsedNs(lookup_start);
  telemetry->cache_lookup_ns = lookup_elapsed > lookup.compile_ns
                                   ? lookup_elapsed - lookup.compile_ns
                                   : 0;
  if (!prepared.ok()) return prepared.status();

  PreparedQuery::EvalBreakdown breakdown;
  Result<PqeAnswer> result =
      (*prepared)->EvaluateFpras(*request.pdb, config, &breakdown);
  telemetry->bind_ns = breakdown.bind_ns;
  telemetry->estimate_ns = breakdown.estimate_ns;
  // The class names the deepest stage that did real work.
  if (!lookup.hit) {
    telemetry->cache_class = CacheClass::kColdCompile;
  } else if (!breakdown.bind_reused) {
    telemetry->cache_class = breakdown.bind_delta ? CacheClass::kDeltaRebind
                                                  : CacheClass::kRebind;
  } else if (!breakdown.answer_memo_hit) {
    telemetry->cache_class = CacheClass::kWarmBind;
  } else {
    telemetry->cache_class = CacheClass::kAnswerMemo;
  }
  return result;
}

void PqeService::CaptureRequest(const EvalRequest& request,
                                const PqeEngine::Options& opts,
                                const EvalResponse& resp) const {
  WorkloadRecord record;
  record.request_id = request.request_id;
  switch (request.target) {
    case EvalRequest::Target::kQuery:
      record.target = "query";
      break;
    case EvalRequest::Target::kUnion:
      record.target = "union";
      break;
    case EvalRequest::Target::kUniformReliability:
      record.target = "ur";
      break;
    case EvalRequest::Target::kRpq:
      record.target = "rpq";
      break;
  }
  if (request.rpq != nullptr) {
    record.query = request.rpq->Canonical();
  }
  if (request.query != nullptr) {
    if (request.pdb != nullptr) {
      record.query = request.query->ToString(request.pdb->database().schema());
    } else if (request.db != nullptr) {
      record.query = request.query->ToString(request.db->schema());
    }
  }
  if (request.pdb != nullptr) {
    record.labelling_hash = HashLabelling(*request.pdb);
  }
  // The effective (post-override) values: a replay re-creates this exact
  // evaluation by setting them explicitly, regardless of how the capture-time
  // request spelled them.
  record.config_hash = HashEngineConfig(opts);
  record.method = PqeMethodToString(opts.method);
  record.epsilon = opts.epsilon;
  record.seed = opts.seed;
  record.deadline_ms = request.deadline_ms;
  if (resp.status.ok()) {
    record.status = "ok";
    record.probability = resp.answer.probability;
  } else {
    record.status = resp.deadline_exceeded ? "deadline_exceeded" : "error";
  }
  recorder_->Record(record);
}

Result<PqeService::UpdateStats> PqeService::ApplyUpdate(
    ProbabilisticDatabase* pdb, const LabelDelta& delta) const {
  PQE_TRACE_SPAN_VAR(span, "serve.apply_update");
  if (pdb == nullptr) {
    return Status::InvalidArgument("ApplyUpdate: pdb must be non-null");
  }
  if (delta.facts.size() != delta.new_probs.size()) {
    return Status::InvalidArgument(
        "ApplyUpdate: facts and new_probs must be parallel");
  }
  UpdateStats stats;
  for (size_t i = 0; i < delta.facts.size(); ++i) {
    PQE_RETURN_IF_ERROR(
        pdb->SetProbability(delta.facts[i], delta.new_probs[i]));
    ++stats.facts;
  }
  // Push the delta to every resident prepared query so the next request
  // over the updated pdb lands on an already-refreshed bind.
  for (const auto& prepared : cache_->Snapshot()) {
    ++stats.prepared_visited;
    auto rebind = prepared->Rebind(delta);
    if (!rebind.ok()) {
      if (rebind.status().code() == StatusCode::kNotFound) {
        // Never bound: nothing to refresh, the first evaluation will bind.
        ++stats.untouched;
        continue;
      }
      return rebind.status();
    }
    if (rebind->reused) {
      ++stats.untouched;
    } else if (rebind->delta) {
      ++stats.delta_rebinds;
    } else {
      ++stats.full_rebinds;
    }
  }
  span.AttrUint("facts", stats.facts);
  span.AttrUint("delta_rebinds", stats.delta_rebinds);
  auto& registry = obs::MetricRegistry::Global();
  registry.GetCounter("serve.updates").Increment();
  if (recorder_ != nullptr) {
    WorkloadRecord record;
    record.target = "update";
    record.update_spec = FormatLabelDelta(delta);
    record.labelling_hash = HashLabelling(*pdb);  // post-update labels
    record.status = "ok";
    recorder_->Record(record);
  }
  return stats;
}

}  // namespace serve
}  // namespace pqe
