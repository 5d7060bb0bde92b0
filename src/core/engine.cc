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

EvalResponse PqeEngine::EvaluateRequest(const EvalRequest& request) const {
  const auto start = std::chrono::steady_clock::now();
  EvalResponse resp;
  resp.request_id = request.request_id;

  // Per-request overrides over the engine's options.
  Options opts = options_;
  if (request.method.has_value()) opts.method = *request.method;
  if (request.epsilon.has_value()) opts.epsilon = *request.epsilon;
  if (request.seed.has_value()) opts.seed = *request.seed;
  if (request.collect_trace.has_value()) {
    opts.collect_trace = *request.collect_trace;
  }

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

  auto FinishWith = [&](Result<PqeAnswer> result) {
    if (result.ok()) {
      resp.answer = std::move(*result);
      resp.status = Status::OK();
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
    resp.elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    return resp;
  };

  if (cancel != nullptr && cancel->Expired()) {
    return FinishWith(Status::DeadlineExceeded(
        "request expired before evaluation started"));
  }

  switch (request.target) {
    case EvalRequest::Target::kQuery:
      if (request.query == nullptr || request.pdb == nullptr) {
        return FinishWith(Status::InvalidArgument(
            "EvalRequest(kQuery) requires query and pdb"));
      }
      return FinishWith(EvaluateQueryImpl(*request.query, *request.pdb, opts,
                                          cancel, request.request_id));
    case EvalRequest::Target::kUnion:
      if (request.union_query == nullptr || request.pdb == nullptr) {
        return FinishWith(Status::InvalidArgument(
            "EvalRequest(kUnion) requires union_query and pdb"));
      }
      return FinishWith(EvaluateUnionImpl(*request.union_query, *request.pdb,
                                          opts, cancel, request.request_id));
    case EvalRequest::Target::kUniformReliability:
      if (request.query == nullptr || request.db == nullptr) {
        return FinishWith(Status::InvalidArgument(
            "EvalRequest(kUniformReliability) requires query and db"));
      }
      return FinishWith(
          EvaluateUrImpl(*request.query, *request.db, opts, cancel));
    case EvalRequest::Target::kRpq:
      if (request.rpq == nullptr || request.pdb == nullptr) {
        return FinishWith(Status::InvalidArgument(
            "EvalRequest(kRpq) requires rpq and pdb"));
      }
      return FinishWith(EvaluateRpqImpl(*request.rpq, *request.pdb, opts,
                                        cancel, request.request_id));
  }
  return FinishWith(Status::Internal("unknown EvalRequest target"));
}

Result<PqeAnswer> PqeEngine::EvaluateQueryImpl(
    const ConjunctiveQuery& query, const ProbabilisticDatabase& pdb,
    const Options& opts, const CancelToken* cancel,
    uint64_t request_id) const {
  PqeMethod method = opts.method;
  if (method == PqeMethod::kAuto) {
    if (IsSafeQuery(query)) {
      method = PqeMethod::kSafePlan;
    } else if (pdb.NumFacts() <= opts.enumeration_threshold) {
      method = PqeMethod::kEnumeration;
    } else {
      method = PqeMethod::kFpras;
    }
  }
  std::optional<obs::TraceSession> session;
  if (opts.collect_trace) {
    session.emplace("engine.evaluate");
    obs::SpanAttrUint("request_id", request_id);
    obs::SpanAttrText("method", PqeMethodToString(method));
    obs::SpanAttrUint("facts", pdb.NumFacts());
    obs::SpanAttrFloat("epsilon", opts.epsilon);
  }
  CountMethodEvaluation(method);

  PqeAnswer out;
  out.method_used = method;
  switch (method) {
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
    case PqeMethod::kFpras: {
      if (query.IsPathQuery() && query.IsSelfJoinFree()) {
        // Path queries stay in string automata end to end (Section 3 +
        // string-side multiplier gadgets) — same guarantee, cheaper.
        PQE_ASSIGN_OR_RETURN(
            PathPqeResult r,
            PathPqeEstimate(query, pdb, MakeEstimatorConfig(opts, cancel)));
        out.probability = r.probability;
        out.count_stats = r.stats;
        out.automaton = PqeAnswer::AutomatonStats{
            r.nfa_states, r.nfa_transitions, r.word_length,
            /*decomposition_width=*/0};
        break;
      }
      UrConstructionOptions ur_opts;
      ur_opts.max_width = opts.max_width;
      PQE_ASSIGN_OR_RETURN(
          PqeEstimateResult r,
          PqeEstimate(query, pdb, MakeEstimatorConfig(opts, cancel),
                      ur_opts));
      out.probability = r.probability;
      out.count_stats = r.stats;
      out.automaton = PqeAnswer::AutomatonStats{
          r.nfta_states, r.nfta_transitions, r.tree_size,
          r.decomposition_width};
      break;
    }
    case PqeMethod::kKarpLubyLineage: {
      KarpLubyConfig cfg;
      cfg.epsilon = opts.epsilon;
      cfg.seed = opts.seed;
      cfg.num_threads = opts.num_threads;
      cfg.cancel = cancel;
      PQE_ASSIGN_OR_RETURN(KarpLubyResult r, KarpLubyPqe(query, pdb, cfg));
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
  if (session.has_value()) {
    obs::SpanAttrFloat("probability", out.probability);
    out.trace = std::make_shared<const obs::RunTrace>(session->Finish());
  }
  return out;
}

Result<PqeAnswer> PqeEngine::EvaluateUnionImpl(
    const UnionQuery& query, const ProbabilisticDatabase& pdb,
    const Options& opts, const CancelToken* cancel,
    uint64_t request_id) const {
  std::optional<obs::TraceSession> session;
  if (opts.collect_trace) {
    session.emplace("engine.evaluate_union");
    obs::SpanAttrUint("request_id", request_id);
    obs::SpanAttrUint("facts", pdb.NumFacts());
    obs::SpanAttrUint("disjuncts", query.NumDisjuncts());
  }
  auto Finish = [&](PqeAnswer* answer) {
    CountMethodEvaluation(answer->method_used);
    if (session.has_value()) {
      obs::SpanAttrText("method", PqeMethodToString(answer->method_used));
      obs::SpanAttrFloat("probability", answer->probability);
      answer->trace =
          std::make_shared<const obs::RunTrace>(session->Finish());
    }
  };
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
    Finish(&out);
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
      Finish(&out);
      return out;
    }
  }
  KarpLubyConfig cfg;
  cfg.epsilon = opts.epsilon;
  cfg.seed = opts.seed;
  cfg.num_threads = opts.num_threads;
  cfg.cancel = cancel;
  PQE_ASSIGN_OR_RETURN(KarpLubyResult r, KarpLubyUnionPqe(query, pdb, cfg));
  out.probability = r.probability;
  out.karp_luby = r;
  out.method_used = PqeMethod::kKarpLubyLineage;
  Finish(&out);
  return out;
}

Result<PqeAnswer> PqeEngine::EvaluateRpqImpl(
    const rpq::RpqQuery& query, const ProbabilisticDatabase& pdb,
    const Options& opts, const CancelToken* cancel,
    uint64_t request_id) const {
  PqeMethod method = opts.method;
  const bool was_auto = method == PqeMethod::kAuto;
  if (was_auto) {
    method = pdb.NumFacts() <= opts.enumeration_threshold
                 ? PqeMethod::kEnumeration
                 : PqeMethod::kFpras;
  }
  if (method == PqeMethod::kSafePlan || method == PqeMethod::kMonteCarlo) {
    return Status::NotSupported(
        std::string("regular path queries do not support method '") +
        PqeMethodToString(method) + "'");
  }

  std::optional<obs::TraceSession> session;
  if (opts.collect_trace) {
    session.emplace("engine.evaluate_rpq");
    obs::SpanAttrUint("request_id", request_id);
    obs::SpanAttrText("regex", query.Canonical());
    obs::SpanAttrUint("facts", pdb.NumFacts());
    obs::SpanAttrFloat("epsilon", opts.epsilon);
  }
  // The FPRAS route can cascade into lineage (below), so the method counter
  // runs at the end, against the method that actually produced the answer.
  PqeAnswer out;
  auto Finish = [&](PqeAnswer* answer) {
    CountMethodEvaluation(answer->method_used);
    if (session.has_value()) {
      obs::SpanAttrText("method", PqeMethodToString(answer->method_used));
      obs::SpanAttrFloat("probability", answer->probability);
      answer->trace =
          std::make_shared<const obs::RunTrace>(session->Finish());
    }
  };

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
    Finish(&out);
    return out;
  }

  if (method == PqeMethod::kFpras) {
    auto r = rpq::RpqEstimate(query, pdb, MakeEstimatorConfig(opts, cancel));
    if (r.ok()) {
      out.probability = r->probability;
      out.method_used = PqeMethod::kFpras;
      out.count_stats = r->stats;
      out.automaton = PqeAnswer::AutomatonStats{
          r->nfa_states, r->nfa_transitions, r->word_length,
          /*decomposition_width=*/0};
      Finish(&out);
      return out;
    }
    if (!was_auto || r.status().code() != StatusCode::kNotSupported) {
      return r.status();
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
    Finish(&out);
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
        Finish(&out);
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
    Finish(&out);
    return out;
  }
  KarpLubyConfig cfg;
  cfg.epsilon = opts.epsilon;
  cfg.seed = opts.seed;
  cfg.num_threads = opts.num_threads;
  cfg.cancel = cancel;
  PQE_ASSIGN_OR_RETURN(KarpLubyResult r,
                       KarpLubyEstimate(lineage, pdb, cfg));
  out.probability = r.probability;
  out.karp_luby = r;
  out.method_used = PqeMethod::kKarpLubyLineage;
  Finish(&out);
  return out;
}

Result<PqeAnswer> PqeEngine::EvaluateUrImpl(const ConjunctiveQuery& query,
                                            const Database& db,
                                            const Options& opts,
                                            const CancelToken* cancel) const {
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
      UrEstimate(query, db, MakeEstimatorConfig(opts, cancel), ur_opts));
  out.probability = r.ur.ToDouble();
  out.method_used = PqeMethod::kFpras;
  out.count_stats = r.stats;
  out.automaton = PqeAnswer::AutomatonStats{r.nfta_states,
                                            r.nfta_transitions, r.tree_size,
                                            r.decomposition_width};
  return out;
}

}  // namespace pqe
