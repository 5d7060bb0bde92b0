#ifndef PQE_AUTOMATA_MULTIPLIER_GADGET_H_
#define PQE_AUTOMATA_MULTIPLIER_GADGET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "automata/nfa.h"  // StateId / SymbolId
#include "util/span.h"

namespace pqe {

/// Extra symbols a multiplier n adds below its transition (unary tree nodes
/// or string letters): u(n) = 0 if n == 1, else ⌊log₂(n−1)⌋ + 1
/// (Section 5.2's u(w_i)).
uint64_t GadgetDepth(uint64_t multiplier);

/// The value-stable ("slotted") layout of the Section 5.1 binary-comparator
/// gadgets, shared by the tree route (MultiplierNfta::ToNftaStable) and the
/// string route (MultiplierNfa::ToNfaStable) — footnote 2's observation that
/// the gadget is a degenerate path automaton, made literal. The translated
/// automaton's shape (states, transition count and order, per-transition
/// (from, symbol) and child reserves) depends only on the slot widths, never
/// on the multiplier values; the values live purely in transition targets,
/// which PatchStableSlot rewrites in place. That is what lets a probability
/// bind be patched per fact instead of recompiled (core/gadget_bind.h).
struct StableGadgetLayout {
  SymbolId bit0 = 0;
  SymbolId bit1 = 0;
  /// Global dead state: comparator branches that would exceed the bound (and
  /// entry transitions of multiplier-0 slots) target it. It has no outgoing
  /// transitions, so the counting layers' liveness pruning discards those
  /// branches — stable automata must not be Trim()ed.
  StateId sink = 0;
  struct Slot {
    uint32_t entry_idx = 0;  ///< transition index of the slot's entry edge
    uint32_t width = 0;      ///< comparator width k in bits
    StateId eq0 = 0;         ///< eq[i] = eq0 + i (valid when k > 0)
    StateId lt1 = 0;         ///< lt[i] = lt1 + (i - 1) (valid when k > 1)
    uint32_t exit_off = 0;   ///< offset into exit_targets
    uint32_t exit_len = 0;   ///< the original transition's target count
  };
  std::vector<Slot> slots;  ///< one per multiplier transition, in order
  /// Concatenated original targets: the child states of a tree transition,
  /// or the single target state of a string transition.
  std::vector<StateId> exit_targets;
};

/// Appends one slot to a stable translation in progress: the 2k − 1
/// comparator states of a width-k gadget for the transition (from, symbol,
/// exit), then its entry edge and per-level edges in the fixed order
/// PatchStableSlot's index arithmetic relies on, and finally encodes
/// `multiplier` through PatchStableSlot — so a fresh translation and a
/// patched one are identical by construction. `Automaton` is Nfa (the
/// string route; `exit` is one state) or Nfta (the tree route; `exit` is
/// the child sequence), the two instantiations in multiplier_gadget.cc.
template <typename Automaton>
void AppendStableSlot(Automaton* out, StableGadgetLayout* layout,
                      StateId from, SymbolId symbol, uint64_t width,
                      Span<StateId> exit, uint64_t multiplier);

/// The canonical writer of a slot's value-dependent targets: rewrites slot
/// `slot_idx` so that it encodes `multiplier` (requires
/// GadgetDepth(max(multiplier, 1)) <= the slot's width). The only
/// route-specific step is "set transition idx's target(s)":
/// Nfa::SetTransitionTarget on strings, Nfta::RewriteChildrenInPlace on
/// trees. Either keeps the indexes keyed on (from, symbol) valid, so warm
/// adjacency survives a patch.
template <typename Automaton>
void PatchStableSlot(Automaton* automaton, const StableGadgetLayout& layout,
                     size_t slot_idx, uint64_t multiplier);

}  // namespace pqe

#endif  // PQE_AUTOMATA_MULTIPLIER_GADGET_H_
