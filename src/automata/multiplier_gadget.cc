#include "automata/multiplier_gadget.h"

#include <algorithm>

#include "automata/nfta.h"
#include "util/check.h"

namespace pqe {

namespace {

// The route primitives: append a transition (trees reserve child capacity
// for every value a slot can later encode; strings always have one target)
// and set an existing transition's target(s) in place.
void AddEdge(Nfa* nfa, StateId from, SymbolId symbol, Span<StateId> to,
             size_t /*reserve*/) {
  nfa->AddTransition(from, symbol, to.at(0));
}

void AddEdge(Nfta* nfta, StateId from, SymbolId symbol,
             Span<StateId> children, size_t reserve) {
  nfta->AddTransitionPadded(from, symbol, children, reserve);
}

void SetTargets(Nfa* nfa, uint32_t idx, Span<StateId> to) {
  nfa->SetTransitionTarget(idx, to.at(0));
}

void SetTargets(Nfta* nfta, uint32_t idx, Span<StateId> children) {
  nfta->RewriteChildrenInPlace(idx, children);
}

Span<StateId> ExitOf(const StableGadgetLayout& layout,
                     const StableGadgetLayout::Slot& slot) {
  return Span<StateId>(layout.exit_targets.data() + slot.exit_off,
                       slot.exit_len);
}

}  // namespace

uint64_t GadgetDepth(uint64_t multiplier) {
  PQE_CHECK(multiplier >= 1);
  uint64_t bound = multiplier - 1;
  uint64_t k = 0;
  while (bound) {
    ++k;
    bound >>= 1;
  }
  return k;  // ⌊log₂(n−1)⌋ + 1, and 0 for n == 1
}

template <typename Automaton>
void AppendStableSlot(Automaton* out, StableGadgetLayout* layout,
                      StateId from, SymbolId symbol, uint64_t width,
                      Span<StateId> exit, uint64_t multiplier) {
  PQE_CHECK(out != nullptr && layout != nullptr);
  StableGadgetLayout::Slot slot;
  slot.width = static_cast<uint32_t>(width);
  slot.exit_off = static_cast<uint32_t>(layout->exit_targets.size());
  slot.exit_len = static_cast<uint32_t>(exit.size());
  layout->exit_targets.insert(layout->exit_targets.end(), exit.begin(),
                              exit.end());
  exit = ExitOf(*layout, slot);
  // States: eq[i] = "the first i bits equal the bound's prefix"
  // (i = 0..k−1), lt[i] = "already strictly below" (i = 1..k−1).
  const uint64_t k = width;
  if (k > 0) {
    slot.eq0 = out->AddState();
    for (uint64_t i = 1; i < k; ++i) out->AddState();
    if (k > 1) {
      slot.lt1 = out->AddState();
      for (uint64_t i = 2; i < k; ++i) out->AddState();
    }
  }
  const Span<StateId> hole(&layout->sink, 1);
  // Reserves cover every value the slot can later encode: transitions that
  // may be patched to the exit need its arity (at least 1, so the {sink}
  // placeholder fits).
  const size_t exit_reserve = std::max<size_t>(exit.size(), 1);
  slot.entry_idx = static_cast<uint32_t>(out->NumTransitions());
  // Value-dependent targets are {sink} placeholders until PatchStableSlot
  // writes them below; lt edges are value-independent and get their final
  // targets here, never to be touched again.
  AddEdge(out, from, symbol, hole, k == 0 ? exit_reserve : 1);
  for (uint64_t i = 0; i < k; ++i) {
    const bool last = (i + 1 == k);
    const size_t reserve = last ? exit_reserve : 1;
    // Fixed per-level order, whatever the bound's bit: eq·1, eq·0, then
    // (from level 1 on) lt·0, lt·1.
    const StateId eqi = static_cast<StateId>(slot.eq0 + i);
    AddEdge(out, eqi, layout->bit1, hole, reserve);
    AddEdge(out, eqi, layout->bit0, hole, reserve);
    if (i >= 1) {
      const StateId lti = static_cast<StateId>(slot.lt1 + (i - 1));
      const StateId lt_next_s = static_cast<StateId>(slot.lt1 + i);
      const Span<StateId> lt_next = last ? exit : Span<StateId>(&lt_next_s, 1);
      AddEdge(out, lti, layout->bit0, lt_next, reserve);
      AddEdge(out, lti, layout->bit1, lt_next, reserve);
    }
  }
  layout->slots.push_back(slot);
  PatchStableSlot(out, *layout, layout->slots.size() - 1, multiplier);
}

template <typename Automaton>
void PatchStableSlot(Automaton* automaton, const StableGadgetLayout& layout,
                     size_t slot_idx, uint64_t multiplier) {
  PQE_CHECK(automaton != nullptr);
  PQE_CHECK(slot_idx < layout.slots.size());
  const StableGadgetLayout::Slot& slot = layout.slots[slot_idx];
  const uint64_t k = slot.width;
  PQE_CHECK(GadgetDepth(std::max<uint64_t>(multiplier, 1)) <= k);
  const Span<StateId> hole(&layout.sink, 1);
  const Span<StateId> exit = ExitOf(layout, slot);
  // Entry: a multiplier of 0 accepts nothing — route into the dead sink.
  // Width-0 slots (denominator 1) exit straight from the entry edge.
  if (multiplier == 0) {
    SetTargets(automaton, slot.entry_idx, hole);
  } else if (k == 0) {
    SetTargets(automaton, slot.entry_idx, exit);
  } else {
    SetTargets(automaton, slot.entry_idx, Span<StateId>(&slot.eq0, 1));
  }
  // Comparator targets for the bound B = multiplier − 1: the gadget accepts
  // exactly the k-bit strings with value <= B (leading zeros pad widths
  // beyond the minimum). For multiplier 0 the gadget is unreachable; its
  // targets are still written for B = 0 so every value's encoding is unique.
  const uint64_t bound = multiplier == 0 ? 0 : multiplier - 1;
  for (uint64_t i = 0; i < k; ++i) {
    const bool last = (i + 1 == k);
    const uint64_t pos = k - 1 - i;  // bit position, MSB first
    const int b = pos >= 64 ? 0 : static_cast<int>((bound >> pos) & 1);
    // Per-slot edge order (AppendStableSlot): entry, then 2 eq edges at
    // level 0, then 4 edges (2 eq + 2 lt) per later level.
    const uint32_t eq_bit1 =
        slot.entry_idx + 1 +
        (i == 0 ? 0u : 2u + 4u * (static_cast<uint32_t>(i) - 1));
    const uint32_t eq_bit0 = eq_bit1 + 1;
    const StateId eq_next_s = static_cast<StateId>(slot.eq0 + i + 1);
    const StateId lt_next_s = static_cast<StateId>(slot.lt1 + i);
    const Span<StateId> eq_next = last ? exit : Span<StateId>(&eq_next_s, 1);
    const Span<StateId> lt_next = last ? exit : Span<StateId>(&lt_next_s, 1);
    if (b == 1) {
      SetTargets(automaton, eq_bit1, eq_next);
      SetTargets(automaton, eq_bit0, lt_next);
    } else {
      // Reading 1 from the eq track would exceed the bound: dead branch.
      SetTargets(automaton, eq_bit1, hole);
      SetTargets(automaton, eq_bit0, eq_next);
    }
  }
}

template void AppendStableSlot<Nfa>(Nfa*, StableGadgetLayout*, StateId,
                                    SymbolId, uint64_t, Span<StateId>,
                                    uint64_t);
template void AppendStableSlot<Nfta>(Nfta*, StableGadgetLayout*, StateId,
                                     SymbolId, uint64_t, Span<StateId>,
                                     uint64_t);
template void PatchStableSlot<Nfa>(Nfa*, const StableGadgetLayout&, size_t,
                                   uint64_t);
template void PatchStableSlot<Nfta>(Nfta*, const StableGadgetLayout&, size_t,
                                    uint64_t);

}  // namespace pqe
