#ifndef PQE_LINEAGE_KARP_LUBY_H_
#define PQE_LINEAGE_KARP_LUBY_H_

#include <cstddef>
#include <cstdint>

#include "lineage/lineage.h"
#include "pdb/probabilistic_database.h"
#include "util/cancel.h"
#include "util/result.h"

namespace pqe {

/// Tuning for the Karp–Luby DNF probability estimator.
struct KarpLubyConfig {
  double epsilon = 0.2;
  double confidence = 0.9;
  uint64_t seed = 0x5eed;
  /// 0 = auto: ceil(8 · m / ε²) coverage samples for m clauses, clamped.
  size_t num_samples = 0;
  size_t min_samples = 256;
  size_t max_samples = 0;  // 0 = uncapped
  /// Worker threads for the sample loop. 0 = auto: $PQE_THREADS when set,
  /// else 1 (serial). The estimate is bit-identical for every value.
  size_t num_threads = 0;
  /// Sample-loop shards (0 = default 64, clamped to the sample count). Each
  /// shard covers a fixed contiguous block of samples and seeds its own Rng
  /// from (seed, shard); shard hits are summed in shard order, so results
  /// depend on (seed, num_shards) only — never on num_threads or
  /// scheduling. Changing num_shards changes the sample streams (like
  /// changing the seed), not the estimator's guarantee.
  size_t num_shards = 0;
  /// Cooperative cancellation (optional, not owned; must outlive the run).
  /// Each shard polls the token every few hundred samples and stops early
  /// when it expires; the run then returns StatusCode::kDeadlineExceeded
  /// instead of a result, after recording per-block progress on the token
  /// (see util/cancel.h). nullptr (the default) never cancels.
  const CancelToken* cancel = nullptr;
};

/// Result of a Karp–Luby run.
struct KarpLubyResult {
  double probability = 0.0;
  size_t samples = 0;
  size_t clauses = 0;
  size_t hits = 0;  // canonical (first-satisfied-clause) draws
};

/// The classical intensional baseline: (1±ε)-approximates Pr_H(Q) given the
/// DNF lineage, using the Karp–Luby coverage estimator. Sample a clause
/// proportional to its marginal probability, draw a world conditioned on the
/// clause being true, and count the draw iff the clause is the first
/// satisfied one; Pr = (Σ_j Pr(C_j)) · acceptance rate. Runtime is linear in
/// the lineage size per sample — and the lineage itself is exponential in
/// |Q|, which is the paper's core complaint.
Result<KarpLubyResult> KarpLubyEstimate(const DnfLineage& lineage,
                                        const ProbabilisticDatabase& pdb,
                                        const KarpLubyConfig& config);

/// Exact weighted model count of the DNF by Shannon expansion with
/// memoization on the residual clause set. Exponential worst case; exact
/// oracle for mid-sized instances where 2^|D| enumeration is hopeless.
Result<BigRational> ExactDnfProbability(const DnfLineage& lineage,
                                        const ProbabilisticDatabase& pdb,
                                        size_t max_memo_entries = 4'000'000);

}  // namespace pqe

#endif  // PQE_LINEAGE_KARP_LUBY_H_
