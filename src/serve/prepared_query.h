#ifndef PQE_SERVE_PREPARED_QUERY_H_
#define PQE_SERVE_PREPARED_QUERY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/path_pqe.h"
#include "core/pqe.h"
#include "core/ur_construction.h"
#include "counting/config.h"
#include "cq/query.h"
#include "pdb/database.h"
#include "pdb/probabilistic_database.h"
#include "util/result.h"

namespace pqe {
namespace serve {

/// A batch of fact-probability updates, in ORIGINAL-database FactIds (the
/// ids ProbabilisticDatabase::SetProbability takes). `facts` and `new_probs`
/// are parallel vectors. Facts a query's projection dropped are simply
/// untouched for that query — a delta can safely carry updates that only
/// some prepared queries care about.
struct LabelDelta {
  std::vector<FactId> facts;
  std::vector<Probability> new_probs;
};

/// A query compiled once per (query, database) pair and served many times.
///
/// Exploits the Theorem 1 split the core layer exposes: the hypertree
/// decomposition and Proposition 1 automaton depend only on the query and
/// the plain facts (the *skeleton*), while the §5.1 multiplier gadgets
/// depend on the probability labels (the *bind*). Prepare() pays for the
/// skeleton; each evaluation only rebinds — and rebinding is itself cached
/// in a small LRU of bound labellings, so serving a recent labelling again
/// reuses the gadget-expanded, CSR-warmed automaton outright.
///
/// Incremental maintenance: binds use the value-stable gadget layout
/// (core/gadget_bind.h PqeBindLayout), so when a new labelling differs from a
/// cached one only in numerators, the bind is produced by *patching* the
/// prior bound automaton in place of its changed gadget slots (a delta
/// rebind) instead of re-running the whole gadget expansion. Structure
/// never changes — only transition targets inside touched gadgets — so the
/// warm CSR indexes keyed on (from, symbol) survive the patch and only the
/// target-keyed index is rebuilt. Denominator changes fall back to a full
/// rebind transparently.
///
/// Route selection mirrors PqeEngine's kFpras branch exactly: self-join-free
/// path queries stay in string automata (Section 3 + string gadgets),
/// everything else takes the generic tree pipeline. EvaluateFpras assembles
/// the same PqeAnswer the engine's cold path produces, bit for bit — the
/// skeleton/bind composition is the cold path (see core/pqe.cc), and the
/// counting layer is seeded identically.
///
/// Thread-safe after construction: concurrent EvaluateFpras calls share
/// bound automata behind a mutex-guarded LRU with per-slot once-flags
/// (concurrent misses on the same labelling block on one build — single
/// flight — instead of racing), and automata are warmed (run index /
/// adjacency CSR) before publication so const traversals from many threads
/// race on nothing.
class PreparedQuery {
 public:
  /// Compiles the probability-independent skeleton. Fails like the cold
  /// path would (NotSupported for self-joins, width overflow, ...).
  /// `db` must hold the same facts later evaluations' pdb wraps — the
  /// serving cache keys on that content (see PreparedCache).
  /// `bind_cache_capacity` bounds the LRU of bound labellings (min 1).
  /// Returned by shared_ptr because the object carries its own
  /// synchronization (mutex + bind slots) and is meant to be shared across
  /// serving threads.
  static Result<std::shared_ptr<const PreparedQuery>> Prepare(
      const ConjunctiveQuery& query, const Database& db,
      const UrConstructionOptions& options, size_t bind_cache_capacity = 4);

  /// Compiles a regular path query's skeleton (rpq::CompileRpqSkeleton): the
  /// degenerate concatenation-only case lowers to the linear path skeleton
  /// outright, everything else goes through the product construction. The
  /// result is a PathPqeSkeleton either way, so binds, delta rebinds, the
  /// bind LRU, and the answer memo all work unchanged. Fails like the
  /// engine's kFpras RPQ route would (NotSupported when the instance is not
  /// scan-orderable — the service falls back to the engine's lineage
  /// cascade).
  static Result<std::shared_ptr<const PreparedQuery>> PrepareRpq(
      const rpq::RpqQuery& query, const Database& db,
      size_t bind_cache_capacity = 4);

  PreparedQuery(const PreparedQuery&) = delete;
  PreparedQuery& operator=(const PreparedQuery&) = delete;

  /// True when the query serves through the Section 3 string specialization.
  bool is_path_route() const { return path_.has_value(); }

  /// Projected→original fact map of the skeleton: projected index j carries
  /// the probability of original fact original_fact()[j].
  const std::vector<FactId>& original_fact() const {
    return path_.has_value() ? path_->original_fact : tree_->original_fact;
  }

  /// Per-call work accounting for the serving telemetry plane. Timings are
  /// steady_clock (present in every build); fields for stages that did not
  /// run stay 0/false.
  struct EvalBreakdown {
    uint64_t bind_ns = 0;      // GetBound time (lookup or gadget expansion)
    uint64_t estimate_ns = 0;  // counting-layer sampling time
    bool bind_reused = false;      // a cached bind served this call
    bool bind_delta = false;       // this call's bind was a delta patch
    bool answer_memo_hit = false;  // the answer memo served this call
    uint64_t samples = 0;  // rejection-sampling attempts of the answer
  };

  /// Evaluates Pr_H(Q) over `pdb` with the combined FPRAS, rebinding the
  /// cached skeleton (or reusing a cached bind when `pdb`'s probability
  /// labels match a recent call's). The answer is bit-identical to
  /// PqeEngine's cold kFpras evaluation at equal (query, pdb, config).
  /// `config.cancel` is honored by the counting loops (kDeadlineExceeded).
  /// A repeat call with the same labels and the same draw-steering config
  /// returns the memoized previous answer (see Bound) — still bit-identical
  /// to the cold path, just without re-running the sampler.
  Result<PqeAnswer> EvaluateFpras(const ProbabilisticDatabase& pdb,
                                  const EstimatorConfig& config,
                                  EvalBreakdown* breakdown = nullptr) const;

  /// Outcome of one Rebind() call.
  struct RebindStats {
    bool reused = false;        // the labelling was already bound
    bool delta = false;         // bind produced by patching a prior bound
    size_t patched_slots = 0;   // gadget slots rewritten (delta path only)
    size_t untouched = 0;       // delta facts outside this query's projection
  };

  /// Applies `delta` on top of the most recently bound labelling and binds
  /// the result, preferring the in-place gadget patch. The new bound enters
  /// the LRU as MRU, so the next EvaluateFpras carrying the updated pdb is
  /// a warm bind hit. Fails with kNotFound when nothing has been bound yet
  /// (there is no labelling to apply the delta to — the caller should just
  /// evaluate, paying the ordinary first bind).
  Result<RebindStats> Rebind(const LabelDelta& delta) const;

  /// Number of EvaluateFpras calls that reused a cached bind outright.
  uint64_t bind_hits() const;
  /// Number of binds that ran the full gadget expansion.
  uint64_t rebinds() const;
  /// Number of binds served by patching a prior bound in place.
  uint64_t delta_rebinds() const;
  /// Number of calls that joined another thread's in-flight bind instead of
  /// duplicating it (single-flight savings).
  uint64_t avoided_rebinds() const;
  /// Number of bound labellings evicted from the bind LRU.
  uint64_t bind_evictions() const;
  /// Number of EvaluateFpras calls answered from a per-bind answer memo.
  uint64_t answer_hits() const;

 private:
  /// One probability labelling's bound artifact, shared across requests.
  /// Carries a small answer memo: the counting layer is a deterministic
  /// function of (bound automaton, estimator config) — bit-identical at
  /// every thread count — so a repeated request provably reproduces its
  /// previous answer and the memo can serve it without re-sampling. The key
  /// hashes exactly the config fields that steer the draws (num_threads and
  /// cancel excluded); only fully completed runs are memoized.
  ///
  /// Memo invalidation under updates is by construction: a delta rebind
  /// produces a NEW Bound (fresh, empty memo) for the new labelling, while
  /// the prior labelling's Bound — and its memo — stays valid in the LRU.
  /// Memos are keyed by the labelling they were computed under, so an
  /// update can never serve a stale answer.
  struct Bound {
    uint64_t probs_hash = 0;
    std::vector<Probability> probs;         // the bound labelling (delta seed)
    std::optional<BoundPqeAutomaton> tree;  // generic route
    std::optional<BoundPathNfa> path;       // string route
    PqeAnswer::AutomatonStats automaton;    // shape of whichever is bound
    size_t patched_slots = 0;               // 0 unless built by delta patch
    bool delta_patched = false;             // built by patching a prior bound
    mutable std::mutex memo_mu;
    mutable std::unordered_map<uint64_t, PqeAnswer> memo;
  };

  /// One LRU entry. The once-flag makes binds single-flight: every caller
  /// that finds the slot blocks on the same build instead of duplicating
  /// it. `bound`/`status` are written exactly once under `once`; `done`
  /// (release-stored after the build) lets lock-holders distinguish a
  /// completed slot from an in-flight one without touching the flag.
  struct BindSlot {
    uint64_t probs_hash = 0;
    std::once_flag once;
    std::shared_ptr<const Bound> seed;  // delta seed, set at insert, cleared
                                        // by the builder
    std::shared_ptr<const Bound> bound;
    Status status = Status::OK();
    std::atomic<bool> done{false};
  };

  PreparedQuery() = default;

  struct BindOutcome {
    bool reused = false;
    bool delta = false;
    size_t patched_slots = 0;
  };

  /// Returns the bound artifact for `probs`, building it if no cached slot
  /// holds the labelling. The build prefers the delta patch seeded from the
  /// most recent completed bound; a labelling the layout can't patch to
  /// (denominator drift) falls back to the full gadget expansion.
  Result<std::shared_ptr<const Bound>> GetBound(
      const std::vector<Probability>& probs,
      BindOutcome* outcome = nullptr) const;

  /// The build body run under a slot's once-flag.
  void BuildBound(const std::vector<Probability>& probs, BindSlot* slot) const;

  // Exactly one of the two skeletons is set (route fixed at Prepare time).
  std::optional<PqeSkeleton> tree_;
  std::optional<PathPqeSkeleton> path_;
  size_t decomposition_width_ = 0;  // 0 on the path route
  size_t bind_cache_capacity_ = 4;

  // MRU-first bind LRU: serving workloads rebind when labels drift, re-serve
  // identical labels in bursts, and alternate between a few labellings; a
  // small LRU captures all three without holding every labelling ever seen
  // alive.
  mutable std::mutex mu_;
  mutable std::vector<std::shared_ptr<BindSlot>> bind_lru_;
  mutable std::atomic<uint64_t> bind_hits_{0};
  mutable std::atomic<uint64_t> rebinds_{0};
  mutable std::atomic<uint64_t> delta_rebinds_{0};
  mutable std::atomic<uint64_t> avoided_rebinds_{0};
  mutable std::atomic<uint64_t> bind_evictions_{0};
  mutable std::atomic<uint64_t> answer_hits_{0};
};

}  // namespace serve
}  // namespace pqe

#endif  // PQE_SERVE_PREPARED_QUERY_H_
