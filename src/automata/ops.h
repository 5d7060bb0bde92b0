#ifndef PQE_AUTOMATA_OPS_H_
#define PQE_AUTOMATA_OPS_H_

#include "automata/nfa.h"
#include "automata/nfta.h"
#include "util/result.h"

namespace pqe {

/// Language union of two NFAs: disjoint state union, both initial/accepting
/// sets kept. Alphabets are identified by symbol id.
Nfa UnionNfa(const Nfa& a, const Nfa& b);

/// Language intersection via the product construction, restricted to pairs
/// reachable from the initial pairs. Useful for cross-checking constructions
/// (e.g. emptiness of L(M) ∩ L(M') witnesses disjointness).
Nfa IntersectNfa(const Nfa& a, const Nfa& b);

/// Language reversal: transitions flipped, initial and accepting swapped.
/// |L_n| is preserved for every n (reversal is a bijection on strings).
Nfa ReverseNfa(const Nfa& a);

/// Language union of two λ-free NFTAs: disjoint state union plus a fresh
/// initial state carrying copies of both automata's initial-state
/// transitions. Fails if either automaton still has λ-transitions.
Result<Nfta> UnionNfta(const Nfta& a, const Nfta& b);

/// The string automaton as a unary tree automaton (the paper's footnote 2: a
/// string is a degenerate tree): trees of size n read bottom-up spell the
/// strings of length n of `a`, and ExactCountNftaTrees(UnaryNfta(a), n) ==
/// ExactCountNfaStrings(a, n) for n ≥ 1. The states are a's states plus a
/// fresh initial root; state q generates the strings that drive an initial
/// state to q. Each transition (p, a, q) becomes (q, a, [p]) (its index is
/// kept), each distinct a on an edge from an initial state into q becomes a
/// leaf (q, a), and the root copies the in-edges of the accepting states,
/// deduplicated on (a, p), and their leaves, deduplicated on a.
Nfta UnaryNfta(const Nfa& a);

}  // namespace pqe

#endif  // PQE_AUTOMATA_OPS_H_
