#ifndef PQE_CORE_ENGINE_H_
#define PQE_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "counting/config.h"
#include "cq/ucq.h"
#include "cq/query.h"
#include "lineage/karp_luby.h"
#include "obs/trace.h"
#include "pdb/probabilistic_database.h"
#include "util/cancel.h"
#include "util/result.h"

namespace pqe {

namespace rpq {
class RpqQuery;
}  // namespace rpq

/// Evaluation strategies offered by the engine.
enum class PqeMethod {
  /// Pick automatically: safe queries run the exact extensional plan; small
  /// instances run exact enumeration; everything else runs the paper's
  /// combined FPRAS, or lineage for a union, which has none.
  kAuto,
  /// Theorem 1: hypertree decomposition → NFTA → CountNFTA (FPRAS).
  kFpras,
  /// Dalvi–Suciu extensional plan (exact; safe queries only).
  kSafePlan,
  /// Possible-world enumeration (exact; 2^|D| — tiny instances only).
  kEnumeration,
  /// Classical intensional baseline: DNF lineage + Karp–Luby (FPRAS whose
  /// lineage is exponential in |Q|).
  kKarpLubyLineage,
  /// Lineage + exact Shannon-expansion model counting (with independent-
  /// component decomposition).
  kExactLineage,
  /// Naive Monte Carlo over worlds: unbiased but only additive accuracy —
  /// included as the classical non-FPRAS contrast.
  kMonteCarlo,
};

const char* PqeMethodToString(PqeMethod method);

/// Every PqeMethod enumerator, for exhaustive iteration in tests and tools.
/// PqeMethodToString's switch has no default case, so -Wswitch flags a new
/// enumerator missing there; the exhaustiveness test in engine_test covers
/// this list staying total.
inline constexpr PqeMethod kAllPqeMethods[] = {
    PqeMethod::kAuto,           PqeMethod::kFpras,
    PqeMethod::kSafePlan,       PqeMethod::kEnumeration,
    PqeMethod::kKarpLubyLineage, PqeMethod::kExactLineage,
    PqeMethod::kMonteCarlo,
};

/// One evaluation answer with provenance. Every run figure is carried
/// structurally (count_stats / karp_luby / automaton / lineage /
/// monte_carlo / trace); RenderDiagnostics (below) formats a human-readable
/// summary from them on demand — nothing pre-rendered is stored.
struct PqeAnswer {
  /// Size figures of the constructed evaluation artifact, when one exists.
  struct AutomatonStats {
    size_t states = 0;
    size_t transitions = 0;
    size_t tree_size = 0;           // k (word length for path queries)
    size_t decomposition_width = 0; // 0 for the string specialization
  };
  /// Shannon/decomposition figures when an exact lineage method ran.
  struct LineageStats {
    size_t clauses = 0;
    size_t shannon_splits = 0;
    size_t component_splits = 0;
  };
  /// Sample accounting when naive Monte Carlo ran.
  struct SampleCounts {
    size_t samples = 0;
    size_t hits = 0;
  };

  double probability = 0.0;
  PqeMethod method_used = PqeMethod::kAuto;
  bool is_exact = false;
  /// Sampler statistics when a CountNFTA/CountNFA-based FPRAS ran.
  std::optional<CountStats> count_stats;
  /// Run statistics when a Karp–Luby lineage estimator ran.
  std::optional<KarpLubyResult> karp_luby;
  /// Automaton/plan size figures when an automaton-based method ran.
  std::optional<AutomatonStats> automaton;
  /// Lineage model-count figures when kExactLineage ran.
  std::optional<LineageStats> lineage;
  /// World-sample counts when kMonteCarlo ran.
  std::optional<SampleCounts> monte_carlo;
  /// |D| when kEnumeration ran (the answer enumerated 2^|D| worlds).
  std::optional<size_t> enumerated_facts;
  /// The structured run trace, when Options::collect_trace was set. Shared
  /// so PqeAnswer stays cheaply copyable. Span instrumentation is only
  /// present when built with PQE_ENABLE_TRACING (the default); otherwise
  /// this holds just the timed root span.
  std::shared_ptr<const obs::RunTrace> trace;
};

/// Renders the one-line human-readable summary of an answer from its
/// structured fields (method, automaton sizes, sampler statistics). The CLI
/// is the main consumer; library callers read the structured fields.
std::string RenderDiagnostics(const PqeAnswer& answer);

/// One evaluation request: what to evaluate plus per-request overrides of
/// the engine's configuration. Referenced objects (query/database/token) are
/// not owned and must outlive the call. Unset optionals inherit the engine's
/// Options, so a default-initialized request behaves exactly like the
/// corresponding legacy entry point.
struct EvalRequest {
  enum class Target {
    kQuery,               // Pr_H(Q) for a conjunctive query (query + pdb)
    kUnion,               // Pr_H(Q₁ ∨ ... ∨ Q_m) (union_query + pdb)
    kUniformReliability,  // UR(Q, D) (query + db); probability holds the count
    kRpq,                 // Pr_H(Q) for a regular path query (rpq + pdb)
  };

  Target target = Target::kQuery;
  const ConjunctiveQuery* query = nullptr;     // kQuery, kUniformReliability
  const UnionQuery* union_query = nullptr;     // kUnion
  const rpq::RpqQuery* rpq = nullptr;          // kRpq
  const ProbabilisticDatabase* pdb = nullptr;  // kQuery, kUnion, kRpq
  const Database* db = nullptr;                // kUniformReliability

  /// Per-request overrides; unset = inherit the engine's Options.
  std::optional<PqeMethod> method;
  std::optional<double> epsilon;
  std::optional<uint64_t> seed;
  std::optional<bool> collect_trace;

  /// Caller-chosen identifier, echoed in the response. The serving layer
  /// derives per-request seeds from it (Rng::DeriveSeed) when `seed` is
  /// unset, so ids double as determinism anchors in batches.
  uint64_t request_id = 0;
  /// Wall-clock budget in milliseconds (0 = none). Enforced cooperatively:
  /// the sampling loops poll a deadline token and the request returns a
  /// kDeadlineExceeded status with partial progress instead of hanging.
  uint64_t deadline_ms = 0;
  /// Optional external cancellation token (not owned; composes with
  /// deadline_ms — the request aborts when either expires). Lets callers
  /// cancel explicitly, and lets tests exercise the deadline path
  /// deterministically with a pre-cancelled token.
  const CancelToken* cancel = nullptr;

  static EvalRequest ForQuery(const ConjunctiveQuery& query,
                              const ProbabilisticDatabase& pdb) {
    EvalRequest r;
    r.target = Target::kQuery;
    r.query = &query;
    r.pdb = &pdb;
    return r;
  }
  static EvalRequest ForUnion(const UnionQuery& union_query,
                              const ProbabilisticDatabase& pdb) {
    EvalRequest r;
    r.target = Target::kUnion;
    r.union_query = &union_query;
    r.pdb = &pdb;
    return r;
  }
  static EvalRequest ForUniformReliability(const ConjunctiveQuery& query,
                                           const Database& db) {
    EvalRequest r;
    r.target = Target::kUniformReliability;
    r.query = &query;
    r.db = &db;
    return r;
  }
  static EvalRequest ForRpq(const rpq::RpqQuery& rpq,
                            const ProbabilisticDatabase& pdb) {
    EvalRequest r;
    r.target = Target::kRpq;
    r.rpq = &rpq;
    r.pdb = &pdb;
    return r;
  }
};

/// The outcome of one EvalRequest. `answer` is meaningful iff `status` is
/// OK; a deadline-capped request reports `deadline_exceeded` plus the work
/// units completed before expiry (`progress`, see util/cancel.h).
struct EvalResponse {
  uint64_t request_id = 0;
  Status status;
  PqeAnswer answer;
  bool deadline_exceeded = false;
  double elapsed_ms = 0.0;
  uint64_t progress = 0;  // sampling work units finished before any expiry
};

/// High-level facade over every evaluation strategy in the library.
/// Thread-compatible: construct one engine per thread.
class PqeEngine {
 public:
  struct Options {
    PqeMethod method = PqeMethod::kAuto;
    /// FPRAS accuracy target and seed (also seeds Karp–Luby).
    double epsilon = 0.2;
    uint64_t seed = 0x5eed;
    /// Hypertree-width budget for the decomposer.
    size_t max_width = 3;
    /// kAuto switches to enumeration below this fact count.
    size_t enumeration_threshold = 16;
    /// Overrides forwarded to the counting estimator (0 = auto).
    size_t pool_size = 0;
    size_t max_pool_size = 768;
    /// Median-of-R amplification for the FPRAS (1 = single run).
    size_t repetitions = 3;
    /// Worker threads for the parallel sampling layers (median-of-R reps,
    /// Karp–Luby / Monte-Carlo sample shards). 0 = auto: $PQE_THREADS when
    /// set, else 1 (serial). Every estimate is bit-identical across values;
    /// see docs/parallelism.md.
    size_t num_threads = 0;
    /// Collect a structured RunTrace for each evaluation (PqeAnswer::trace).
    /// Off by default: tracing is cheap but not free, and answers stay lean.
    bool collect_trace = false;
    /// Clause budget for the RPQ lineage fallback: regular path queries on
    /// instances that are not scan-orderable (src/rpq/product.h) route
    /// through the exact product-path lineage + Karp–Luby, capped at this
    /// many clauses.
    size_t rpq_clause_budget = 200'000;

    class Builder;
  };

  explicit PqeEngine(Options options) : options_(options) {}
  PqeEngine() : PqeEngine(Options{}) {}

  const Options& options() const { return options_; }

  /// The kFpras step of a kQuery or kRpq request: Pr_H(Q) of request.query
  /// (or request.rpq) over request.pdb by the combined FPRAS, under the
  /// request's effective `options` and the `config` built from them
  /// (MakeEstimatorConfig, carrying the request's cancel token). A
  /// kNotSupported result on a kAuto kRpq request (no scan order) falls back
  /// to the engine's lineage cascade.
  using FprasLeaf = std::function<Result<PqeAnswer>(
      const EvalRequest& request, const Options& options,
      const EstimatorConfig& config)>;

  /// The single evaluation entry point and request envelope: applies
  /// per-request overrides, resolves kAuto, enforces deadline_ms/cancel
  /// cooperatively, opens the request's trace, counts the evaluation, and
  /// never throws or hangs — errors (including kDeadlineExceeded) come back
  /// in EvalResponse::status. A forced method the request's target cannot
  /// run (the table in docs/architecture.md) returns kNotSupported. The kFpras step runs the cold chain
  /// (PathPqeEstimate / PqeEstimate / rpq::RpqEstimate).
  EvalResponse EvaluateRequest(const EvalRequest& request) const;

  /// The same envelope with `fpras` as the kFpras step (PqeService serves
  /// it from its PreparedCache). Every other step is the engine's own.
  EvalResponse EvaluateRequest(const EvalRequest& request,
                               const FprasLeaf& fpras) const;

  /// The request's effective options: its per-request overrides (method,
  /// epsilon, seed, collect_trace) over the engine's.
  Options ResolveOptions(const EvalRequest& request) const;

  /// The EstimatorConfig the engine hands to the counting layers for these
  /// options (shared with src/serve/ so prepared evaluations and engine
  /// evaluations are configured identically). `cancel` is threaded into the
  /// config's cooperative-cancellation hook.
  static EstimatorConfig MakeEstimatorConfig(const Options& options,
                                             const CancelToken* cancel);

 private:
  Options options_;
};

/// Fluent, validating construction of engine options: range errors surface
/// as a Status at Build() time instead of being silently clamped mid-run.
class PqeEngine::Options::Builder {
 public:
  Builder() = default;
  /// Starts from an existing options value (e.g. to tweak one knob).
  explicit Builder(Options base) : opts_(base) {}

  Builder& Method(PqeMethod method) {
    opts_.method = method;
    return *this;
  }
  Builder& Epsilon(double epsilon) {
    opts_.epsilon = epsilon;
    return *this;
  }
  Builder& Seed(uint64_t seed) {
    opts_.seed = seed;
    return *this;
  }
  Builder& MaxWidth(size_t max_width) {
    opts_.max_width = max_width;
    return *this;
  }
  Builder& EnumerationThreshold(size_t threshold) {
    opts_.enumeration_threshold = threshold;
    return *this;
  }
  Builder& PoolSize(size_t pool_size) {
    opts_.pool_size = pool_size;
    return *this;
  }
  Builder& MaxPoolSize(size_t max_pool_size) {
    opts_.max_pool_size = max_pool_size;
    return *this;
  }
  Builder& Repetitions(size_t repetitions) {
    opts_.repetitions = repetitions;
    return *this;
  }
  Builder& NumThreads(size_t num_threads) {
    opts_.num_threads = num_threads;
    return *this;
  }
  Builder& CollectTrace(bool collect) {
    opts_.collect_trace = collect;
    return *this;
  }
  Builder& RpqClauseBudget(size_t budget) {
    opts_.rpq_clause_budget = budget;
    return *this;
  }

  /// Validates ranges (epsilon ∈ (0, 1), max_width ≥ 1, repetitions ≥ 1,
  /// pool_size ≤ max_pool_size when both are set) and returns the options,
  /// or an InvalidArgument status naming the offending knob.
  Result<Options> Build() const;

 private:
  Options opts_;
};

}  // namespace pqe

#endif  // PQE_CORE_ENGINE_H_
