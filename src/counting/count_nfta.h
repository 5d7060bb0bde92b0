#ifndef PQE_COUNTING_COUNT_NFTA_H_
#define PQE_COUNTING_COUNT_NFTA_H_

#include <cstddef>

#include <vector>

#include "automata/nfta.h"
#include "automata/tree.h"
#include "counting/config.h"
#include "counting/median_of_r.h"
#include "util/result.h"

namespace pqe {

/// CountNFTA (Section 2, citing Arenas et al., STOC '21): approximates
/// |L_n(T)|, the number of labelled trees of size exactly n accepted by the
/// (λ-free) top-down NFTA T, within (1 ± ε) with high probability, in time
/// poly(n, |T|, 1/ε).
///
/// Implementation: size-stratified dynamic programming over two families of
/// strata:
///   A(q, s)     — trees of size s generable from state q;
///   F(τ, j, s)  — ordered forests for the first j children of transition τ
///                 with total size s.
/// F-strata combine by an exact disjoint product rule (the size of the last
/// child determines the split), so their estimates multiply and their
/// samples compose without rejection. F(τ, 1, s) is A(child₁(τ), s) itself:
/// it keeps its one split but no pool, and its sample i is the child's tree
/// sample i. A-strata are overlapping unions over the out-transitions of q
/// and use the Karp–Luby canonical-witness estimator
/// (counting/union_estimator.h): a sample's canonical member is the first
/// same-symbol member whose child states accept its subtrees, decided
/// exactly by bottom-up simulation (the run-state sets of Nfta::RunStates,
/// memoized inline in each pooled sample). The feasibility pass numbers the
/// live strata by size, so each size is one id range of tree strata and one
/// of forest strata; a record per live stratum holds its estimate and its
/// pool. Samples are O(1) derivation references that name the strata they
/// extend by id, and are materialized on demand. CountNFA runs this counter
/// on a string automaton's unary encoding (counting/count_nfa.h).
///
/// Fails with InvalidArgument if the automaton still has λ-transitions
/// (call Nfta::EliminateLambda first).
Result<CountEstimate> CountNftaTrees(const Nfta& nfta, size_t n,
                                     const EstimatorConfig& config);

/// The same run under another route's span, metric and deadline names.
Result<CountEstimate> CountNftaTrees(const Nfta& nfta, size_t n,
                                     const EstimatorConfig& config,
                                     const CounterNames& names);

/// A count estimate together with (near-)uniform samples of accepted trees —
/// the counting pools double as samplers (the "uniform generation" half of
/// the Arenas et al. results). `samples` is empty when the language is.
struct NftaSampleResult {
  CountEstimate estimate;
  std::vector<LabeledTree> samples;
};
Result<NftaSampleResult> CountAndSampleNftaTrees(
    const Nfta& nfta, size_t n, const EstimatorConfig& config,
    size_t num_samples);

}  // namespace pqe

#endif  // PQE_COUNTING_COUNT_NFTA_H_
