#ifndef PQE_COUNTING_MEDIAN_OF_R_H_
#define PQE_COUNTING_MEDIAN_OF_R_H_

#include <functional>

#include "counting/config.h"
#include "util/result.h"

namespace pqe {

namespace obs {
class ScopedSpan;
}  // namespace obs

/// How one counting route names its run: its span and per-repetition spans,
/// its metrics, and the counter and stratum unit a DeadlineError reports.
/// The string route runs the tree counter under its own names
/// (counting/count_nfa.h).
struct CounterNames {
  const char* span;       // e.g. "count.nfta"
  const char* rep_span;   // e.g. "count.nfta.rep"
  const char* metrics;    // e.g. "pqe.count_nfta"
  const char* counter;    // e.g. "count_nfta"
  const char* unit;       // e.g. "size"
  const char* size_attr;  // the span attribute carrying n, e.g. "tree_size"
};

/// Median-of-R amplification of the counter: the standard FPRAS confidence
/// boost. With config.repetitions <= 1, `run_one(config)` runs once.
/// Otherwise repetition r runs `run_one` with repetitions = 1 and seed
/// Rng::DeriveSeed(config.seed, r), fanned out over up to
/// config.num_threads workers, so the automaton's lazy indexes must be
/// built before the call. Each repetition writes its own slot and the merge
/// runs in repetition order, so the returned median and its stats
/// (CountStats::MergeRepetition) are bit-identical at every thread count.
/// Records the run on `span` (RecordCountRun).
Result<CountEstimate> CountMedianOfR(
    const EstimatorConfig& config, const CounterNames& names,
    obs::ScopedSpan* span,
    const std::function<Result<CountEstimate>(const EstimatorConfig&)>&
        run_one);

}  // namespace pqe

#endif  // PQE_COUNTING_MEDIAN_OF_R_H_
