#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

#include "core/path_pqe.h"
#include "core/pqe.h"
#include "core/ur_construction.h"
#include "eval/eval.h"
#include "eval/ucq_eval.h"
#include "lineage/compiled_wmc.h"
#include "lineage/lineage.h"
#include "lineage/monte_carlo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpq/eval.h"
#include "rpq/product.h"
#include "rpq/regex.h"
#include "safeplan/safe_plan.h"
#include "util/str_cat.h"

namespace pqe {

namespace {

void CountMethodEvaluation(PqeMethod method) {
  obs::MetricRegistry::Global()
      .GetCounter(std::string("pqe.engine.evaluations.") +
                  PqeMethodToString(method))
      .Increment();
}

// The method-specific prefix of the diagnostics line, reconstructed from the
// structured answer fields.
std::string DiagnosticsPrefix(const PqeAnswer& answer) {
  switch (answer.method_used) {
    case PqeMethod::kSafePlan:
      return "extensional safe plan (exact)";
    case PqeMethod::kEnumeration:
      return StrCat("possible-world enumeration over 2^",
                    answer.enumerated_facts.value_or(0), " worlds (exact)");
    case PqeMethod::kFpras:
      // decomposition_width == 0 marks the Section 3 string specialization.
      if (answer.automaton.has_value() &&
          answer.automaton->decomposition_width == 0) {
        return "combined FPRAS (Theorem 1, string specialization):";
      }
      return "combined FPRAS (Theorem 1):";
    case PqeMethod::kKarpLubyLineage:
      return "Karp–Luby over DNF lineage:";
    case PqeMethod::kExactLineage: {
      std::string out = "decomposed model count over lineage:";
      if (answer.lineage.has_value()) {
        out += StrCat(" clauses=", answer.lineage->clauses,
                      " splits=", answer.lineage->shannon_splits, "+",
                      answer.lineage->component_splits);
      }
      return out + " (exact)";
    }
    case PqeMethod::kMonteCarlo: {
      std::string out = "naive Monte Carlo:";
      if (answer.monte_carlo.has_value()) {
        out += StrCat(" ", answer.monte_carlo->hits, "/",
                      answer.monte_carlo->samples, " worlds satisfied Q");
      }
      return out;
    }
    case PqeMethod::kAuto:
      return "(unresolved method)";
  }
  return "(unknown method)";
}

}  // namespace

std::string RenderDiagnostics(const PqeAnswer& answer) {
  std::ostringstream out;
  out << DiagnosticsPrefix(answer);
  if (answer.automaton.has_value()) {
    if (answer.automaton->decomposition_width > 0) {
      out << " width=" << answer.automaton->decomposition_width;
    }
    out << " k=" << answer.automaton->tree_size
        << " states=" << answer.automaton->states
        << " transitions=" << answer.automaton->transitions;
  }
  if (answer.count_stats.has_value()) {
    out << "; " << answer.count_stats->ToString();
  }
  if (answer.karp_luby.has_value()) {
    out << " clauses=" << answer.karp_luby->clauses
        << " samples=" << answer.karp_luby->samples
        << " hits=" << answer.karp_luby->hits;
  }
  return out.str();
}

const char* PqeMethodToString(PqeMethod method) {
  switch (method) {
    case PqeMethod::kAuto:
      return "auto";
    case PqeMethod::kFpras:
      return "fpras";
    case PqeMethod::kSafePlan:
      return "safe-plan";
    case PqeMethod::kEnumeration:
      return "enumeration";
    case PqeMethod::kKarpLubyLineage:
      return "karp-luby-lineage";
    case PqeMethod::kExactLineage:
      return "exact-lineage";
    case PqeMethod::kMonteCarlo:
      return "monte-carlo";
  }
  return "unknown";
}

Result<PqeEngine::Options> PqeEngine::Options::Builder::Build() const {
  if (!(opts_.epsilon > 0.0 && opts_.epsilon < 1.0)) {
    return Status::InvalidArgument(
        "Options: epsilon must lie in (0, 1), got " +
        std::to_string(opts_.epsilon));
  }
  if (opts_.max_width < 1) {
    return Status::InvalidArgument("Options: max_width must be >= 1");
  }
  if (opts_.repetitions < 1) {
    return Status::InvalidArgument("Options: repetitions must be >= 1");
  }
  if (opts_.pool_size > 0 && opts_.max_pool_size > 0 &&
      opts_.pool_size > opts_.max_pool_size) {
    return Status::InvalidArgument(
        "Options: pool_size (" + std::to_string(opts_.pool_size) +
        ") exceeds max_pool_size (" + std::to_string(opts_.max_pool_size) +
        ")");
  }
  if (opts_.rpq_clause_budget < 1) {
    return Status::InvalidArgument("Options: rpq_clause_budget must be >= 1");
  }
  return opts_;
}

EstimatorConfig PqeEngine::MakeEstimatorConfig(const Options& options,
                                               const CancelToken* cancel) {
  EstimatorConfig cfg;
  cfg.epsilon = options.epsilon;
  cfg.seed = options.seed;
  cfg.pool_size = options.pool_size;
  cfg.max_pool_size = options.max_pool_size;
  cfg.repetitions = options.repetitions;
  cfg.num_threads = options.num_threads;
  cfg.cancel = cancel;
  return cfg;
}

namespace {

using Target = EvalRequest::Target;

// The full-size clause cap of a CQ or UCQ lineage (BuildLineage's and
// BuildUnionLineage's default), and the size under which kAuto tries an
// exact model count before Karp–Luby.
constexpr size_t kLineageClauseCap = 5'000'000;
constexpr size_t kExactClauseBudget = 20'000;

// The Karp–Luby lineage estimator's config for these options.
KarpLubyConfig MakeKarpLubyConfig(const PqeEngine::Options& options,
                                  const CancelToken* cancel) {
  KarpLubyConfig cfg;
  cfg.epsilon = options.epsilon;
  cfg.seed = options.seed;
  cfg.num_threads = options.num_threads;
  cfg.cancel = cancel;
  return cfg;
}

size_t NumFacts(const EvalRequest& request) {
  return request.target == Target::kUniformReliability
             ? request.db->NumFacts()
             : request.pdb->NumFacts();
}

// The methods each target can run. Every target enumerates worlds; the safe
// plan and naive Monte Carlo take a CQ; a union has no combined FPRAS (the
// paper's scope is one self-join-free CQ) and uniform reliability, a count,
// has no lineage route.
bool Supports(Target target, PqeMethod method) {
  switch (method) {
    case PqeMethod::kAuto:
    case PqeMethod::kEnumeration:
      return true;
    case PqeMethod::kSafePlan:
    case PqeMethod::kMonteCarlo:
      return target == Target::kQuery;
    case PqeMethod::kFpras:
      return target != Target::kUnion;
    case PqeMethod::kKarpLubyLineage:
    case PqeMethod::kExactLineage:
      return target != Target::kUniformReliability;
  }
  return false;
}

const char* TargetName(Target target) {
  switch (target) {
    case Target::kQuery:
      return "conjunctive queries";
    case Target::kUnion:
      return "unions of conjunctive queries";
    case Target::kUniformReliability:
      return "uniform reliability requests";
    case Target::kRpq:
      return "regular path queries";
  }
  return "unknown targets";
}

// The method a request runs; kNotSupported when it forces one its target
// lacks. kAuto resolves to the Dalvi–Suciu safe plan for a hierarchical CQ,
// then exact enumeration at or below enumeration_threshold facts, then the
// combined FPRAS. A union has no FPRAS and stays kAuto, which the lineage
// step reads as "exact first, Karp–Luby beyond".
Result<PqeMethod> ResolveMethod(const EvalRequest& request,
                                const PqeEngine::Options& opts) {
  if (!Supports(request.target, opts.method)) {
    return Status::NotSupported(StrCat(TargetName(request.target),
                                       " do not support method '",
                                       PqeMethodToString(opts.method), "'"));
  }
  if (opts.method != PqeMethod::kAuto) return opts.method;
  if (request.target == Target::kQuery && IsSafeQuery(*request.query)) {
    return PqeMethod::kSafePlan;
  }
  if (NumFacts(request) <= opts.enumeration_threshold) {
    return PqeMethod::kEnumeration;
  }
  return Supports(request.target, PqeMethod::kFpras) ? PqeMethod::kFpras
                                                     : PqeMethod::kAuto;
}

// The cold kFpras step: the whole compile → bind → count chain per request.
// Self-join-free path queries and RPQs stay in string automata end to end
// (Section 3 + string-side multiplier gadgets); every other CQ takes the
// generic tree pipeline.
Result<PqeAnswer> ColdFpras(const EvalRequest& request,
                            const PqeEngine::Options& opts,
                            const EstimatorConfig& config) {
  PqeAnswer out;
  out.method_used = PqeMethod::kFpras;
  const bool is_rpq = request.target == EvalRequest::Target::kRpq;
  if (is_rpq || TakesStringRoute(*request.query)) {
    PQE_ASSIGN_OR_RETURN(
        PathPqeResult r,
        is_rpq ? rpq::RpqEstimate(*request.rpq, *request.pdb, config)
               : PathPqeEstimate(*request.query, *request.pdb, config));
    out.probability = r.probability;
    out.count_stats = r.stats;
    out.automaton = PqeAnswer::AutomatonStats{
        r.nfa_states, r.nfa_transitions, r.word_length,
        /*decomposition_width=*/0};
    return out;
  }
  UrConstructionOptions ur_opts;
  ur_opts.max_width = opts.max_width;
  PQE_ASSIGN_OR_RETURN(
      PqeEstimateResult r,
      PqeEstimate(*request.query, *request.pdb, config, ur_opts));
  out.probability = r.probability;
  out.count_stats = r.stats;
  out.automaton = PqeAnswer::AutomatonStats{
      r.nfta_states, r.nfta_transitions, r.tree_size, r.decomposition_width};
  return out;
}

Status CheckRequest(const EvalRequest& request) {
  const auto require = [](bool present, const char* message) {
    return present ? Status::OK() : Status::InvalidArgument(message);
  };
  switch (request.target) {
    case EvalRequest::Target::kQuery:
      return require(request.query != nullptr && request.pdb != nullptr,
                     "EvalRequest(kQuery) requires query and pdb");
    case EvalRequest::Target::kUnion:
      return require(request.union_query != nullptr && request.pdb != nullptr,
                     "EvalRequest(kUnion) requires union_query and pdb");
    case EvalRequest::Target::kUniformReliability:
      return require(
          request.query != nullptr && request.db != nullptr,
          "EvalRequest(kUniformReliability) requires query and db");
    case EvalRequest::Target::kRpq:
      return require(request.rpq != nullptr && request.pdb != nullptr,
                     "EvalRequest(kRpq) requires rpq and pdb");
  }
  return Status::Internal("unknown EvalRequest target");
}

// Opens the request's root span: one root per target, carrying the request
// id, the target's shape and ε. The envelope adds `method` and
// `probability` once the answer is in.
void OpenRootSpan(const EvalRequest& request, const PqeEngine::Options& opts,
                  std::optional<obs::TraceSession>* session) {
  session->emplace(request.target == Target::kUnion ? "engine.evaluate_union"
                   : request.target == Target::kRpq ? "engine.evaluate_rpq"
                                                    : "engine.evaluate");
  obs::SpanAttrUint("request_id", request.request_id);
  if (request.target == Target::kRpq) {
    obs::SpanAttrText("regex", request.rpq->Canonical());
  }
  if (request.target == Target::kUnion) {
    obs::SpanAttrUint("disjuncts", request.union_query->NumDisjuncts());
  }
  obs::SpanAttrUint("facts", NumFacts(request));
  obs::SpanAttrFloat("epsilon", opts.epsilon);
}

template <typename Number>
Result<double> ToDouble(const Result<Number>& exact) {
  PQE_RETURN_IF_ERROR(exact.status());
  return exact->ToDouble();
}

// Exact possible-world enumeration by the target's oracle, over at most
// enumeration_threshold + 8 facts.
Result<PqeAnswer> EnumerationStep(const EvalRequest& request,
                                  const PqeEngine::Options& opts) {
  PQE_TRACE_SPAN("exact.enumeration");
  const size_t cap = opts.enumeration_threshold + 8;
  Result<double> p = [&]() -> Result<double> {
    switch (request.target) {
      case Target::kQuery:
        return ToDouble(
            ExactProbabilityByEnumeration(*request.pdb, *request.query, cap));
      case Target::kUnion:
        return ToDouble(ExactUnionProbabilityByEnumeration(
            *request.pdb, *request.union_query, cap));
      case Target::kUniformReliability:
        return ToDouble(
            UniformReliabilityByEnumeration(*request.db, *request.query, cap));
      case Target::kRpq:
        return ToDouble(rpq::ExactRpqProbabilityByEnumeration(
            *request.rpq, *request.pdb, cap));
    }
    return Status::Internal("unknown EvalRequest target");
  }();
  PqeAnswer out;
  PQE_ASSIGN_OR_RETURN(out.probability, p);
  out.is_exact = true;
  out.method_used = PqeMethod::kEnumeration;
  out.enumerated_facts = NumFacts(request);
  return out;
}

// The combined FPRAS: the `fpras` leaf for a CQ or RPQ, the Prop. 1
// estimator for uniform reliability.
Result<PqeAnswer> FprasStep(const EvalRequest& request,
                            const PqeEngine::Options& opts,
                            const CancelToken* cancel,
                            const PqeEngine::FprasLeaf& fpras) {
  const EstimatorConfig config = PqeEngine::MakeEstimatorConfig(opts, cancel);
  if (request.target != Target::kUniformReliability) {
    return fpras(request, opts, config);
  }
  UrConstructionOptions ur_opts;
  ur_opts.max_width = opts.max_width;
  PQE_ASSIGN_OR_RETURN(UrEstimateResult r,
                       UrEstimate(*request.query, *request.db, config, ur_opts));
  PqeAnswer out;
  out.probability = r.ur.ToDouble();
  out.method_used = PqeMethod::kFpras;
  out.count_stats = r.stats;
  out.automaton = PqeAnswer::AutomatonStats{r.nfta_states, r.nfta_transitions,
                                            r.tree_size, r.decomposition_width};
  return out;
}

PqeAnswer ExactLineageAnswer(double probability,
                             PqeAnswer::LineageStats stats) {
  PqeAnswer out;
  out.probability = probability;
  out.is_exact = true;
  out.method_used = PqeMethod::kExactLineage;
  out.lineage = stats;
  return out;
}

// The lineage step over the target's DNF: the CQ's or the union's lineage,
// capped at kLineageClauseCap clauses, or an RPQ's product-path lineage,
// capped at rpq_clause_budget. kExactLineage counts it exactly,
// kKarpLubyLineage samples it, and kAuto counts it exactly when it has at
// most kExactClauseBudget clauses and the count succeeds, else samples it.
Result<PqeAnswer> LineageStep(const EvalRequest& request, PqeMethod method,
                              const PqeEngine::Options& opts,
                              const CancelToken* cancel) {
  const ProbabilisticDatabase& pdb = *request.pdb;
  std::function<Result<DnfLineage>(size_t max_clauses)> build;
  size_t max_clauses = kLineageClauseCap;
  std::optional<rpq::RpqProduct> product;
  switch (request.target) {
    case Target::kQuery:
      build = [&](size_t cap) {
        return BuildLineage(*request.query, pdb.database(), cap);
      };
      break;
    case Target::kUnion:
      build = [&](size_t cap) {
        return BuildUnionLineage(*request.union_query, pdb.database(), cap);
      };
      break;
    case Target::kRpq: {
      PQE_ASSIGN_OR_RETURN(product,
                           rpq::BuildRpqProduct(*request.rpq, pdb.database()));
      if (product->trivially_true) {
        // ε ∈ L(regex) over a non-empty domain: the lineage is the
        // constant-true DNF (one empty clause), exactly probability 1.
        return ExactLineageAnswer(1.0, {1, 0, 0});
      }
      build = [&](size_t cap) { return rpq::BuildRpqLineage(*product, cap); };
      max_clauses = opts.rpq_clause_budget;
      break;
    }
    case Target::kUniformReliability:
      return Status::Internal("uniform reliability has no lineage");
  }

  const size_t first_cap = method == PqeMethod::kAuto
                               ? std::min(max_clauses, kExactClauseBudget)
                               : max_clauses;
  Result<DnfLineage> lineage = build(first_cap);
  if (method != PqeMethod::kKarpLubyLineage && lineage.ok()) {
    Result<CompiledWmcResult> exact =
        ExactDnfProbabilityDecomposed(*lineage, pdb);
    if (exact.ok()) {
      return ExactLineageAnswer(
          exact->probability.ToDouble(),
          {lineage->NumClauses(), exact->stats.shannon_splits,
           exact->stats.component_splits});
    }
    if (method == PqeMethod::kExactLineage) return exact.status();
  } else if (method == PqeMethod::kExactLineage) {
    return lineage.status();
  }
  if (!lineage.ok() && first_cap < max_clauses) lineage = build(max_clauses);
  PQE_RETURN_IF_ERROR(lineage.status());
  if (product.has_value() && lineage->NumClauses() == 0) {
    // An RPQ unsatisfiable on every subinstance: exactly probability 0.
    return ExactLineageAnswer(0.0, {0, 0, 0});
  }
  PQE_ASSIGN_OR_RETURN(
      KarpLubyResult r,
      KarpLubyEstimate(*lineage, pdb, MakeKarpLubyConfig(opts, cancel)));
  PqeAnswer out;
  out.probability = r.probability;
  out.karp_luby = r;
  out.method_used = PqeMethod::kKarpLubyLineage;
  return out;
}

// The one method cascade of every target: resolve the method, then run its
// step. A kAuto RPQ whose FPRAS finds no scan order falls back to the
// lineage step.
Result<PqeAnswer> RunMethod(const EvalRequest& request,
                            const PqeEngine::Options& opts,
                            const CancelToken* cancel,
                            const PqeEngine::FprasLeaf& fpras) {
  PQE_ASSIGN_OR_RETURN(const PqeMethod method, ResolveMethod(request, opts));
  switch (method) {
    case PqeMethod::kSafePlan: {
      PqeAnswer out;
      PQE_ASSIGN_OR_RETURN(out.probability,
                           SafePlanProbability(*request.query, *request.pdb));
      out.is_exact = true;
      out.method_used = PqeMethod::kSafePlan;
      return out;
    }
    case PqeMethod::kEnumeration:
      return EnumerationStep(request, opts);
    case PqeMethod::kFpras: {
      Result<PqeAnswer> r = FprasStep(request, opts, cancel, fpras);
      if (r.ok() || request.target != Target::kRpq ||
          opts.method != PqeMethod::kAuto ||
          r.status().code() != StatusCode::kNotSupported) {
        return r;
      }
      // Not scan-orderable (cyclic data under the regex).
      return LineageStep(request, PqeMethod::kAuto, opts, cancel);
    }
    case PqeMethod::kAuto:
    case PqeMethod::kExactLineage:
    case PqeMethod::kKarpLubyLineage:
      return LineageStep(request, method, opts, cancel);
    case PqeMethod::kMonteCarlo: {
      MonteCarloConfig cfg;
      cfg.seed = opts.seed;
      cfg.num_samples = 20'000;
      cfg.num_threads = opts.num_threads;
      PQE_ASSIGN_OR_RETURN(MonteCarloResult r,
                           MonteCarloPqe(*request.query, *request.pdb, cfg));
      PqeAnswer out;
      out.probability = r.probability;
      out.method_used = PqeMethod::kMonteCarlo;
      out.monte_carlo = PqeAnswer::SampleCounts{r.samples, r.hits};
      return out;
    }
  }
  return Status::Internal("unknown method");
}

// Everything between the deadline token and the response: pre-expiry,
// request validation, the trace root, the method cascade and the
// per-method counter.
Result<PqeAnswer> Evaluate(const EvalRequest& request,
                           const PqeEngine::Options& opts,
                           const CancelToken* cancel,
                           const PqeEngine::FprasLeaf& fpras) {
  if (cancel != nullptr && cancel->Expired()) {
    return Status::DeadlineExceeded(
        "request expired before evaluation started");
  }
  PQE_RETURN_IF_ERROR(CheckRequest(request));
  std::optional<obs::TraceSession> session;
  if (opts.collect_trace) OpenRootSpan(request, opts, &session);
  Result<PqeAnswer> result = RunMethod(request, opts, cancel, fpras);
  if (!result.ok()) return result;
  CountMethodEvaluation(result->method_used);
  if (session.has_value()) {
    obs::SpanAttrText("method", PqeMethodToString(result->method_used));
    obs::SpanAttrFloat("probability", result->probability);
    result->trace = std::make_shared<const obs::RunTrace>(session->Finish());
  }
  return result;
}

}  // namespace

PqeEngine::Options PqeEngine::ResolveOptions(
    const EvalRequest& request) const {
  Options opts = options_;
  if (request.method.has_value()) opts.method = *request.method;
  if (request.epsilon.has_value()) opts.epsilon = *request.epsilon;
  if (request.seed.has_value()) opts.seed = *request.seed;
  if (request.collect_trace.has_value()) {
    opts.collect_trace = *request.collect_trace;
  }
  return opts;
}

EvalResponse PqeEngine::EvaluateRequest(const EvalRequest& request) const {
  return EvaluateRequest(request, ColdFpras);
}

EvalResponse PqeEngine::EvaluateRequest(const EvalRequest& request,
                                        const FprasLeaf& fpras) const {
  const auto start = std::chrono::steady_clock::now();
  const Options opts = ResolveOptions(request);

  // The deadline token chains any external token, so the request aborts when
  // either expires; with no deadline the external token (if any) is polled
  // directly.
  std::optional<CancelToken> deadline;
  const CancelToken* cancel = request.cancel;
  if (request.deadline_ms > 0) {
    deadline.emplace(std::chrono::milliseconds(request.deadline_ms),
                     request.cancel);
    cancel = &*deadline;
  }

  Result<PqeAnswer> result = Evaluate(request, opts, cancel, fpras);
  EvalResponse resp;
  resp.request_id = request.request_id;
  if (result.ok()) {
    resp.answer = std::move(*result);
  } else {
    resp.status = result.status();
  }
  resp.deadline_exceeded =
      resp.status.code() == StatusCode::kDeadlineExceeded;
  if (resp.deadline_exceeded) {
    obs::MetricRegistry::Global()
        .GetCounter("pqe.engine.deadline_exceeded")
        .Increment();
  }
  if (cancel != nullptr) resp.progress = cancel->progress();
  resp.elapsed_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return resp;
}

}  // namespace pqe
