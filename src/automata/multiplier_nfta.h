#ifndef PQE_AUTOMATA_MULTIPLIER_NFTA_H_
#define PQE_AUTOMATA_MULTIPLIER_NFTA_H_

#include <cstdint>
#include <vector>

#include "automata/multiplier_gadget.h"
#include "automata/nfta.h"
#include "util/result.h"

namespace pqe {

/// A (top-down) NFTA with multipliers T^c (Definition 2): each transition
/// carries a positive integer n ("multiplier"); taking the transition must
/// multiply the number of accepted trees by n. Semantics are defined by
/// translation to an ordinary NFTA (ToNftaStable) via the binary-comparator
/// gadget of Section 5.1: below the transition's node a unary path of
/// k = ⌊log₂(n−1)⌋ + 1 bit-labelled nodes spells a binary string, and the
/// gadget accepts exactly the n strings with value ≤ n − 1.
class MultiplierNfta {
 public:
  struct Transition {
    StateId from;
    SymbolId symbol;
    // n ∈ N. 0 means the transition is impossible (contributes no trees);
    // its slot's entry is routed into the layout's dead sink.
    uint64_t multiplier = 1;
    // Comparator width in bits; >= GadgetDepth(max(multiplier, 1)). Widths
    // beyond the minimum pad with leading zeros (the comparator still
    // accepts exactly `multiplier` strings) so that callers can equalize the
    // tree-size contribution across transitions — the PQE reduction needs
    // the positive and negative branch of a fact to add the same number of
    // nodes.
    uint64_t width = 0;
    std::vector<StateId> children;
  };

  MultiplierNfta() = default;

  /// Initializes states/alphabet/initial state from an ordinary NFTA's
  /// shape; transitions are added separately (with multipliers).
  static MultiplierNfta FromSkeleton(const Nfta& base);

  StateId AddState();
  void EnsureAlphabetSize(size_t size);
  void SetInitialState(StateId s);
  /// multiplier 0 means the transition is impossible (see
  /// Transition::multiplier). `width` is the comparator width in bits:
  /// 0 = use the minimal GadgetDepth(max(multiplier, 1)); otherwise must be
  /// >= that. A width of w adds exactly w unary nodes below the transition's
  /// node.
  Status AddTransition(StateId from, SymbolId symbol, uint64_t multiplier,
                       std::vector<StateId> children, uint64_t width = 0);

  size_t NumStates() const { return num_states_; }
  size_t NumTransitions() const { return transitions_.size(); }
  size_t AlphabetSize() const { return alphabet_size_; }
  StateId initial_state() const { return initial_; }
  const std::vector<Transition>& transitions() const { return transitions_; }

  /// SymbolIds of the two bit symbols appended by the translation.
  SymbolId BitSymbol(int bit) const;

  /// The translation of Section 5.1 to an ordinary NFTA over the alphabet
  /// Σ ∪ {0, 1} (see BitSymbol), in the value-stable layout: every
  /// transition — multiplier 0 included — compiles to a fixed-shape slot
  /// (entry rule + width-k comparator, dead branches kept as rules into the
  /// shared sink) whose targets alone encode the multiplier. Per Remark 2
  /// this is polynomial in |T^c|: each gadget adds O(log n) states.
  /// `*layout` records where each slot lives so PatchStableSlot can later
  /// re-encode it in place. The result must not be Trim()ed.
  Result<Nfta> ToNftaStable(StableGadgetLayout* layout) const;

 private:
  size_t num_states_ = 0;
  size_t alphabet_size_ = 0;
  StateId initial_ = 0;
  std::vector<Transition> transitions_;
};

}  // namespace pqe

#endif  // PQE_AUTOMATA_MULTIPLIER_NFTA_H_
