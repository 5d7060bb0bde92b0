#ifndef PQE_COUNTING_COUNT_NFA_H_
#define PQE_COUNTING_COUNT_NFA_H_

#include <cstddef>

#include "automata/nfa.h"
#include "counting/config.h"
#include "util/result.h"

namespace pqe {

/// CountNFA (Section 2, citing Arenas et al., JACM '21): approximates
/// |L_n(M)|, the number of strings of length exactly n accepted by the NFA,
/// within (1 ± ε) with high probability, in time poly(n, |M|, 1/ε).
///
/// Implementation: a string is a unary tree (the paper's footnote 2), so
/// this is CountNFTA (counting/count_nfta.h) on UnaryNfta of the trimmed
/// automaton (automata/ops.h), run under CountNFA's names: spans
/// "count.nfa" / "count.nfa.rep", metrics "pqe.count_nfa.*", and deadline
/// errors "count_nfa: cancelled at length stratum k/n". The tree counter's
/// A(q, l) is the set of strings of length l that drive an initial state to
/// q, and its root-state sets are the subset simulation's reach sets. At
/// n = 0 the count is exact: 1 if an initial state accepts, else 0.
Result<CountEstimate> CountNfaStrings(const Nfa& nfa, size_t n,
                                      const EstimatorConfig& config);

}  // namespace pqe

#endif  // PQE_COUNTING_COUNT_NFA_H_
