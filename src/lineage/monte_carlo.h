#ifndef PQE_LINEAGE_MONTE_CARLO_H_
#define PQE_LINEAGE_MONTE_CARLO_H_

#include <cstddef>
#include <cstdint>

#include "cq/query.h"
#include "pdb/probabilistic_database.h"
#include "util/result.h"

namespace pqe {

/// Tuning for the naive Monte-Carlo baseline.
struct MonteCarloConfig {
  uint64_t seed = 0x5eed;
  size_t num_samples = 10'000;
  /// Worker threads for the sample loop. 0 = auto: $PQE_THREADS when set,
  /// else 1 (serial). The estimate is bit-identical for every value.
  size_t num_threads = 0;
  /// Sample-loop shards (0 = default 64, clamped to the sample count); same
  /// determinism contract as KarpLubyConfig::num_shards.
  size_t num_shards = 0;
};

/// Result of a naive Monte-Carlo run.
struct MonteCarloResult {
  double probability = 0.0;
  size_t samples = 0;
  size_t hits = 0;
};

/// The simplest baseline: sample worlds from the tuple-independent
/// distribution and count how many satisfy Q. Unbiased, and each sample
/// costs one query evaluation — but the relative error explodes as Pr_H(Q)
/// shrinks (additive ±1/√N accuracy only), which is why it is *not* an
/// FPRAS. Included as the classical contrast to both Karp–Luby and the
/// paper's combined FPRAS.
Result<MonteCarloResult> MonteCarloPqe(const ConjunctiveQuery& query,
                                       const ProbabilisticDatabase& pdb,
                                       const MonteCarloConfig& config);

}  // namespace pqe

#endif  // PQE_LINEAGE_MONTE_CARLO_H_
