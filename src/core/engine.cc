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

// The method a kQuery or kRpq request runs. kAuto resolves to the
// Dalvi–Suciu safe plan when the CQ is hierarchical (RPQs have no safe-plan
// tier), then exact enumeration at or below enumeration_threshold facts,
// then the combined FPRAS.
PqeMethod ResolveMethod(const EvalRequest& request,
                        const PqeEngine::Options& opts) {
  if (opts.method != PqeMethod::kAuto) return opts.method;
  if (request.target == EvalRequest::Target::kQuery &&
      IsSafeQuery(*request.query)) {
    return PqeMethod::kSafePlan;
  }
  if (request.pdb->NumFacts() <= opts.enumeration_threshold) {
    return PqeMethod::kEnumeration;
  }
  return PqeMethod::kFpras;
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
  using Target = EvalRequest::Target;
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
  obs::SpanAttrUint("facts", request.target == Target::kUniformReliability
                                 ? request.db->NumFacts()
                                 : request.pdb->NumFacts());
  obs::SpanAttrFloat("epsilon", opts.epsilon);
}

Result<PqeAnswer> EvaluateQuery(const EvalRequest& request,
                                const PqeEngine::Options& opts,
                                const CancelToken* cancel,
                                const PqeEngine::FprasLeaf& fpras) {
  const ConjunctiveQuery& query = *request.query;
  const ProbabilisticDatabase& pdb = *request.pdb;
  PqeAnswer out;
  out.method_used = ResolveMethod(request, opts);
  switch (out.method_used) {
    case PqeMethod::kSafePlan: {
      PQE_ASSIGN_OR_RETURN(out.probability, SafePlanProbability(query, pdb));
      out.is_exact = true;
      break;
    }
    case PqeMethod::kEnumeration: {
      PQE_TRACE_SPAN("exact.enumeration");
      PQE_ASSIGN_OR_RETURN(
          BigRational p,
          ExactProbabilityByEnumeration(pdb, query,
                                        opts.enumeration_threshold + 8));
      out.probability = p.ToDouble();
      out.is_exact = true;
      out.enumerated_facts = pdb.NumFacts();
      break;
    }
    case PqeMethod::kFpras:
      return fpras(request, opts,
                   PqeEngine::MakeEstimatorConfig(opts, cancel));
    case PqeMethod::kKarpLubyLineage: {
      PQE_ASSIGN_OR_RETURN(
          KarpLubyResult r,
          KarpLubyPqe(query, pdb, MakeKarpLubyConfig(opts, cancel)));
      out.probability = r.probability;
      out.karp_luby = r;
      break;
    }
    case PqeMethod::kExactLineage: {
      PQE_ASSIGN_OR_RETURN(DnfLineage lineage,
                           BuildLineage(query, pdb.database()));
      PQE_ASSIGN_OR_RETURN(CompiledWmcResult r,
                           ExactDnfProbabilityDecomposed(lineage, pdb));
      out.probability = r.probability.ToDouble();
      out.is_exact = true;
      out.lineage = PqeAnswer::LineageStats{lineage.NumClauses(),
                                            r.stats.shannon_splits,
                                            r.stats.component_splits};
      break;
    }
    case PqeMethod::kMonteCarlo: {
      MonteCarloConfig cfg;
      cfg.seed = opts.seed;
      cfg.num_samples = 20'000;
      cfg.num_threads = opts.num_threads;
      PQE_ASSIGN_OR_RETURN(MonteCarloResult r,
                           MonteCarloPqe(query, pdb, cfg));
      out.probability = r.probability;
      out.monte_carlo = PqeAnswer::SampleCounts{r.samples, r.hits};
      break;
    }
    case PqeMethod::kAuto:
      return Status::Internal("auto method not resolved");
  }
  return out;
}

Result<PqeAnswer> EvaluateUnion(const UnionQuery& query,
                                const ProbabilisticDatabase& pdb,
                                const PqeEngine::Options& opts,
                                const CancelToken* cancel) {
  PqeAnswer out;
  if (pdb.NumFacts() <= opts.enumeration_threshold) {
    PQE_TRACE_SPAN("exact.enumeration");
    PQE_ASSIGN_OR_RETURN(
        BigRational p,
        ExactUnionProbabilityByEnumeration(pdb, query,
                                           opts.enumeration_threshold + 8));
    out.probability = p.ToDouble();
    out.is_exact = true;
    out.method_used = PqeMethod::kEnumeration;
    out.enumerated_facts = pdb.NumFacts();
    return out;
  }
  // Union lineage: exact where tractable, Karp–Luby beyond.
  constexpr size_t kExactClauseBudget = 20'000;
  auto lineage = BuildUnionLineage(query, pdb.database(),
                                   kExactClauseBudget);
  if (lineage.ok()) {
    auto exact = ExactDnfProbabilityDecomposed(*lineage, pdb);
    if (exact.ok()) {
      out.probability = exact->probability.ToDouble();
      out.is_exact = true;
      out.method_used = PqeMethod::kExactLineage;
      out.lineage = PqeAnswer::LineageStats{lineage->NumClauses(),
                                            exact->stats.shannon_splits,
                                            exact->stats.component_splits};
      return out;
    }
  }
  PQE_ASSIGN_OR_RETURN(
      KarpLubyResult r,
      KarpLubyUnionPqe(query, pdb, MakeKarpLubyConfig(opts, cancel)));
  out.probability = r.probability;
  out.karp_luby = r;
  out.method_used = PqeMethod::kKarpLubyLineage;
  return out;
}

Result<PqeAnswer> EvaluateRpq(const EvalRequest& request,
                              const PqeEngine::Options& opts,
                              const CancelToken* cancel,
                              const PqeEngine::FprasLeaf& fpras) {
  const rpq::RpqQuery& query = *request.rpq;
  const ProbabilisticDatabase& pdb = *request.pdb;
  const PqeMethod method = ResolveMethod(request, opts);
  if (method == PqeMethod::kSafePlan || method == PqeMethod::kMonteCarlo) {
    return Status::NotSupported(
        std::string("regular path queries do not support method '") +
        PqeMethodToString(method) + "'");
  }

  PqeAnswer out;
  if (method == PqeMethod::kEnumeration) {
    PQE_TRACE_SPAN("exact.enumeration");
    PQE_ASSIGN_OR_RETURN(
        BigRational p,
        rpq::ExactRpqProbabilityByEnumeration(query, pdb,
                                              opts.enumeration_threshold + 8));
    out.probability = p.ToDouble();
    out.is_exact = true;
    out.method_used = PqeMethod::kEnumeration;
    out.enumerated_facts = pdb.NumFacts();
    return out;
  }

  if (method == PqeMethod::kFpras) {
    Result<PqeAnswer> r =
        fpras(request, opts, PqeEngine::MakeEstimatorConfig(opts, cancel));
    if (r.ok() || opts.method != PqeMethod::kAuto ||
        r.status().code() != StatusCode::kNotSupported) {
      return r;
    }
    // Not scan-orderable (cyclic data under the regex): fall through to the
    // exact product-path lineage, mirroring the union cascade.
  }

  PQE_ASSIGN_OR_RETURN(rpq::RpqProduct product,
                       rpq::BuildRpqProduct(query, pdb.database()));
  if (product.trivially_true) {
    // ε ∈ L(regex) over a non-empty domain: the lineage is the constant-true
    // DNF (one empty clause) — exactly probability 1, no sampling needed.
    out.probability = 1.0;
    out.is_exact = true;
    out.method_used = PqeMethod::kExactLineage;
    out.lineage = PqeAnswer::LineageStats{1, 0, 0};
    return out;
  }
  if (method == PqeMethod::kExactLineage || method == PqeMethod::kFpras) {
    // Forced exact route, or the auto cascade's exact-first attempt.
    const size_t budget = method == PqeMethod::kExactLineage
                              ? opts.rpq_clause_budget
                              : std::min<size_t>(opts.rpq_clause_budget,
                                                 20'000);
    auto lineage = rpq::BuildRpqLineage(product, budget);
    if (lineage.ok()) {
      auto exact = ExactDnfProbabilityDecomposed(*lineage, pdb);
      if (exact.ok()) {
        out.probability = exact->probability.ToDouble();
        out.is_exact = true;
        out.method_used = PqeMethod::kExactLineage;
        out.lineage = PqeAnswer::LineageStats{lineage->NumClauses(),
                                              exact->stats.shannon_splits,
                                              exact->stats.component_splits};
        return out;
      }
      if (method == PqeMethod::kExactLineage) return exact.status();
    } else if (method == PqeMethod::kExactLineage) {
      return lineage.status();
    }
  }

  PQE_ASSIGN_OR_RETURN(DnfLineage lineage,
                       rpq::BuildRpqLineage(product, opts.rpq_clause_budget));
  if (lineage.NumClauses() == 0) {
    // Unsatisfiable on every subinstance: exactly probability 0.
    out.probability = 0.0;
    out.is_exact = true;
    out.method_used = PqeMethod::kExactLineage;
    out.lineage = PqeAnswer::LineageStats{0, 0, 0};
    return out;
  }
  PQE_ASSIGN_OR_RETURN(
      KarpLubyResult r,
      KarpLubyEstimate(lineage, pdb, MakeKarpLubyConfig(opts, cancel)));
  out.probability = r.probability;
  out.karp_luby = r;
  out.method_used = PqeMethod::kKarpLubyLineage;
  return out;
}

Result<PqeAnswer> EvaluateUr(const ConjunctiveQuery& query,
                             const Database& db,
                             const PqeEngine::Options& opts,
                             const CancelToken* cancel) {
  PqeAnswer out;
  if (db.NumFacts() <= opts.enumeration_threshold) {
    PQE_ASSIGN_OR_RETURN(
        BigUint ur,
        UniformReliabilityByEnumeration(db, query,
                                        opts.enumeration_threshold + 8));
    out.probability = ur.ToDouble();
    out.is_exact = true;
    out.method_used = PqeMethod::kEnumeration;
    out.enumerated_facts = db.NumFacts();
    return out;
  }
  UrConstructionOptions ur_opts;
  ur_opts.max_width = opts.max_width;
  PQE_ASSIGN_OR_RETURN(
      UrEstimateResult r,
      UrEstimate(query, db, PqeEngine::MakeEstimatorConfig(opts, cancel),
                 ur_opts));
  out.probability = r.ur.ToDouble();
  out.method_used = PqeMethod::kFpras;
  out.count_stats = r.stats;
  out.automaton = PqeAnswer::AutomatonStats{r.nfta_states,
                                            r.nfta_transitions, r.tree_size,
                                            r.decomposition_width};
  return out;
}

// Everything between the deadline token and the response: pre-expiry,
// request validation, the trace root, the target's evaluation and the
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
  Result<PqeAnswer> result = [&]() -> Result<PqeAnswer> {
    switch (request.target) {
      case EvalRequest::Target::kQuery:
        return EvaluateQuery(request, opts, cancel, fpras);
      case EvalRequest::Target::kUnion:
        return EvaluateUnion(*request.union_query, *request.pdb, opts,
                             cancel);
      case EvalRequest::Target::kUniformReliability:
        return EvaluateUr(*request.query, *request.db, opts, cancel);
      case EvalRequest::Target::kRpq:
        return EvaluateRpq(request, opts, cancel, fpras);
    }
    return Status::Internal("unknown EvalRequest target");
  }();
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
