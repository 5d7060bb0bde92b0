#ifndef PQE_COUNTING_MEDIAN_OF_R_H_
#define PQE_COUNTING_MEDIAN_OF_R_H_

#include <functional>

#include "counting/config.h"
#include "util/result.h"

namespace pqe {

namespace obs {
class ScopedSpan;
}  // namespace obs

/// How one counter names its per-repetition spans and its metrics.
struct CounterNames {
  const char* rep_span;  // e.g. "count.nfta.rep"
  const char* metrics;   // e.g. "pqe.count_nfta"
};

/// Median-of-R amplification, shared by CountNFA and CountNFTA: the standard
/// FPRAS confidence boost. With config.repetitions <= 1, `run_one(config)`
/// runs once. Otherwise repetition r runs `run_one` with repetitions = 1 and
/// seed Rng::DeriveSeed(config.seed, r), fanned out over up to
/// config.num_threads workers after `warm()` has built the automaton's lazy
/// indexes (so the const automaton can be shared). Each repetition writes
/// its own slot and the merge runs in repetition order, so the returned
/// median and its stats (CountStats::MergeRepetition) are bit-identical at
/// every thread count. Records the run on `span` (RecordCountRun).
Result<CountEstimate> CountMedianOfR(
    const EstimatorConfig& config, const CounterNames& names,
    obs::ScopedSpan* span, const std::function<void()>& warm,
    const std::function<Result<CountEstimate>(const EstimatorConfig&)>&
        run_one);

}  // namespace pqe

#endif  // PQE_COUNTING_MEDIAN_OF_R_H_
