#ifndef PQE_AUTOMATA_MULTIPLIER_NFA_H_
#define PQE_AUTOMATA_MULTIPLIER_NFA_H_

#include <cstdint>
#include <vector>

#include "automata/multiplier_gadget.h"
#include "automata/nfa.h"
#include "util/result.h"

namespace pqe {

/// The string-automaton counterpart of MultiplierNfta. The paper's footnote
/// 2 observes that the Section 5.1 gadget is "a degenerate NFTA accepting
/// only paths", i.e. really a string construction; for path queries the
/// whole Theorem 1 pipeline can therefore stay in string automata (Section 3
/// construction + these gadgets + CountNFA), avoiding trees entirely. The
/// two routes share one gadget layout and slot writer
/// (automata/multiplier_gadget.h).
///
/// Each transition carries a multiplier n ≥ 1 and a comparator width (bits);
/// the translation splices a binary comparator accepting exactly the n
/// width-bit strings with value ≤ n − 1 *after* the transition's symbol.
/// Accepted strings lengthen by `width` per traversed transition, so as in
/// the tree case callers must pad widths so every accepted string lands in a
/// single length stratum.
class MultiplierNfa {
 public:
  struct Transition {
    StateId from;
    SymbolId symbol;
    /// 0 = impossible transition (its slot's entry targets the sink).
    uint64_t multiplier = 1;
    uint64_t width = 0;  // comparator bits; >= GadgetDepth(max(mult, 1))
    StateId to;
  };

  MultiplierNfa() = default;

  /// Copies the state/alphabet/initial/accepting shape of `base`;
  /// transitions are added separately.
  static MultiplierNfa FromSkeleton(const Nfa& base);

  StateId AddState();
  void EnsureAlphabetSize(size_t size);
  void MarkInitial(StateId s);
  void MarkAccepting(StateId s);

  /// multiplier 0 allowed (see Transition::multiplier); width 0 = minimal
  /// (GadgetDepth(max(multiplier, 1))).
  Status AddTransition(StateId from, SymbolId symbol, uint64_t multiplier,
                       StateId to, uint64_t width = 0);

  size_t NumStates() const { return num_states_; }
  size_t NumTransitions() const { return transitions_.size(); }
  size_t AlphabetSize() const { return alphabet_size_; }
  const std::vector<Transition>& transitions() const { return transitions_; }

  /// SymbolIds of the appended bit symbols.
  SymbolId BitSymbol(int bit) const;

  /// Translation to an ordinary NFA over Σ ∪ {0, 1}, in the value-stable
  /// layout: fixed-shape slots whose transition targets alone encode the
  /// multipliers, recorded in `*layout` for in-place re-encoding via
  /// PatchStableSlot. Must not be Trim()ed.
  Result<Nfa> ToNfaStable(StableGadgetLayout* layout) const;

 private:
  size_t num_states_ = 0;
  size_t alphabet_size_ = 0;
  std::vector<Transition> transitions_;
  std::vector<StateId> initial_;
  std::vector<StateId> accepting_;
};

}  // namespace pqe

#endif  // PQE_AUTOMATA_MULTIPLIER_NFA_H_
