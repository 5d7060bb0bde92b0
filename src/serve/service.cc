#include "serve/service.h"

#include <chrono>
#include <cstdio>
#include <optional>
#include <utility>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpq/regex.h"
#include "safeplan/safe_plan.h"
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

}  // namespace

PqeService::PqeService(Options options)
    : options_(std::move(options)),
      engine_(options_.engine),
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
  return EvaluateOne(request, request.request_id,
                     /*inner_threads_override=*/0);
}

std::vector<EvalResponse> PqeService::EvaluateBatch(
    const std::vector<EvalRequest>& requests) const {
  std::vector<EvalResponse> out(requests.size());
  const size_t threads = ThreadPool::ResolveNumThreads(options_.num_threads);
  // The shared pool is not reentrant: when the batch itself fans out, each
  // request's inner sampling is pinned to one thread. Answers don't change
  // — every sampling layer is bit-identical across thread counts.
  const bool parallel = threads > 1 && requests.size() > 1;
  ParallelFor(threads, requests.size(), [&](size_t i) {
    const EvalRequest& req = requests[i];
    const uint64_t id =
        req.request_id != 0 ? req.request_id : static_cast<uint64_t>(i);
    out[i] = EvaluateOne(req, id, parallel ? 1 : 0);
  });
  return out;
}

EvalResponse PqeService::EvaluateOne(const EvalRequest& request,
                                     uint64_t effective_id,
                                     size_t inner_threads_override) const {
  const auto start = std::chrono::steady_clock::now();
  // Effective per-request options: request optionals override the service
  // defaults, and seedless requests get a seed derived from their id so
  // batch members are independent yet individually reproducible.
  PqeEngine::Options opts = options_.engine;
  if (request.method.has_value()) opts.method = *request.method;
  if (request.epsilon.has_value()) opts.epsilon = *request.epsilon;
  if (request.collect_trace.has_value()) {
    opts.collect_trace = *request.collect_trace;
  }
  if (request.kernels.has_value()) opts.kernel_mode = *request.kernels;
  opts.seed = request.seed.has_value()
                  ? *request.seed
                  : Rng::DeriveSeed(options_.engine.seed, effective_id);
  if (inner_threads_override > 0) opts.num_threads = inner_threads_override;

  RequestTelemetry telemetry;
  telemetry.request_id = effective_id;

  EvalResponse resp;
  // kQuery and kRpq requests whose method resolves to the combined FPRAS
  // take the prepared fast path; everything else (safe plans, enumeration,
  // lineage methods, unions, uniform reliability) delegates to a per-request
  // engine carrying the effective options.
  bool prepared_route = false;
  if (request.target == EvalRequest::Target::kQuery &&
      request.query != nullptr && request.pdb != nullptr) {
    PqeMethod method = opts.method;
    if (method == PqeMethod::kAuto) {
      if (IsSafeQuery(*request.query)) {
        method = PqeMethod::kSafePlan;
      } else if (request.pdb->NumFacts() <= opts.enumeration_threshold) {
        method = PqeMethod::kEnumeration;
      } else {
        method = PqeMethod::kFpras;
      }
    }
    prepared_route = method == PqeMethod::kFpras;
  } else if (request.target == EvalRequest::Target::kRpq &&
             request.rpq != nullptr && request.pdb != nullptr) {
    // Mirror of the engine's kRpq auto resolution (no safe-plan tier).
    PqeMethod method = opts.method;
    if (method == PqeMethod::kAuto) {
      method = request.pdb->NumFacts() <= opts.enumeration_threshold
                   ? PqeMethod::kEnumeration
                   : PqeMethod::kFpras;
    }
    prepared_route = method == PqeMethod::kFpras;
  }
  if (prepared_route) {
    resp = EvaluatePrepared(request, effective_id, opts, &telemetry);
    if (request.target == EvalRequest::Target::kRpq &&
        opts.method == PqeMethod::kAuto &&
        resp.status.code() == StatusCode::kNotSupported) {
      // Not scan-orderable: the engine's kAuto cascade falls back to the
      // lineage routes; delegate so served answers keep matching it.
      prepared_route = false;
    }
  }
  if (!prepared_route) {
    PqeEngine delegate(opts);
    EvalRequest forwarded = request;
    forwarded.request_id = effective_id;
    // Already folded into opts; clear so the delegate doesn't re-apply.
    forwarded.method.reset();
    forwarded.epsilon.reset();
    forwarded.seed.reset();
    forwarded.collect_trace.reset();
    forwarded.kernels.reset();
    resp = delegate.EvaluateRequest(forwarded);
    telemetry.cache_class = CacheClass::kDelegated;
    if (resp.answer.count_stats.has_value()) {
      telemetry.samples = resp.answer.count_stats->attempts;
    }
  }

  telemetry.status = resp.status.code();
  telemetry.deadline_exceeded = resp.deadline_exceeded;
  telemetry.progress = resp.progress;
  telemetry.total_ns = ElapsedNs(start);
  telemetry.span_excerpt = BuildSpanExcerpt(telemetry, resp);
  telemetry_.Record(std::move(telemetry));

  if (recorder_ != nullptr) CaptureRequest(request, effective_id, opts, resp);

  auto& registry = obs::MetricRegistry::Global();
  registry.GetCounter("serve.requests").Increment();
  if (resp.deadline_exceeded) {
    registry.GetCounter("serve.deadline_exceeded").Increment();
  }
  registry.GetHistogram("serve.request_ms")
      .Observe(static_cast<uint64_t>(resp.elapsed_ms));
  return resp;
}

void PqeService::CaptureRequest(const EvalRequest& request,
                                uint64_t effective_id,
                                const PqeEngine::Options& opts,
                                const EvalResponse& resp) const {
  WorkloadRecord record;
  record.request_id = effective_id;
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
  record.kernels = KernelModeToString(opts.kernel_mode);
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

EvalResponse PqeService::EvaluatePrepared(
    const EvalRequest& request, uint64_t effective_id,
    const PqeEngine::Options& opts, RequestTelemetry* telemetry) const {
  const auto start = std::chrono::steady_clock::now();
  EvalResponse resp;
  resp.request_id = effective_id;

  std::optional<obs::TraceSession> session;
  if (opts.collect_trace) {
    session.emplace("serve.request");
    obs::SpanAttrUint("request_id", effective_id);
    obs::SpanAttrUint("facts", request.pdb->NumFacts());
  }

  std::optional<CancelToken> deadline;
  const CancelToken* cancel = request.cancel;
  if (request.deadline_ms > 0) {
    deadline.emplace(std::chrono::milliseconds(request.deadline_ms),
                     request.cancel);
    cancel = &*deadline;
  }

  auto FinishWith = [&](Result<PqeAnswer> result) {
    if (result.ok()) {
      resp.answer = std::move(*result);
      resp.status = Status::OK();
      if (session.has_value()) {
        obs::SpanAttrFloat("probability", resp.answer.probability);
        resp.answer.trace =
            std::make_shared<const obs::RunTrace>(session->Finish());
      }
    } else {
      resp.status = result.status();
    }
    resp.deadline_exceeded =
        resp.status.code() == StatusCode::kDeadlineExceeded;
    if (cancel != nullptr) resp.progress = cancel->progress();
    resp.elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    return resp;
  };

  if (cancel != nullptr && cancel->Expired()) {
    return FinishWith(Status::DeadlineExceeded(
        "request expired before evaluation started"));
  }

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
  if (!prepared.ok()) return FinishWith(prepared.status());

  const EstimatorConfig config = PqeEngine::MakeEstimatorConfig(opts, cancel);
  PreparedQuery::EvalBreakdown breakdown;
  Result<PqeAnswer> result =
      (*prepared)->EvaluateFpras(*request.pdb, config, &breakdown);
  telemetry->bind_ns = breakdown.bind_ns;
  telemetry->estimate_ns = breakdown.estimate_ns;
  telemetry->samples = breakdown.samples;
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
  return FinishWith(std::move(result));
}

}  // namespace serve
}  // namespace pqe
