#include "automata/multiplier_nfa.h"

#include <algorithm>

#include "util/check.h"

namespace pqe {

MultiplierNfa MultiplierNfa::FromSkeleton(const Nfa& base) {
  MultiplierNfa out;
  out.num_states_ = base.NumStates();
  out.alphabet_size_ = base.AlphabetSize();
  for (StateId s = 0; s < base.NumStates(); ++s) {
    if (base.IsInitial(s)) out.initial_.push_back(s);
    if (base.IsAccepting(s)) out.accepting_.push_back(s);
  }
  return out;
}

StateId MultiplierNfa::AddState() {
  return static_cast<StateId>(num_states_++);
}

void MultiplierNfa::EnsureAlphabetSize(size_t size) {
  alphabet_size_ = std::max(alphabet_size_, size);
}

void MultiplierNfa::MarkInitial(StateId s) {
  PQE_CHECK(s < num_states_);
  initial_.push_back(s);
}

void MultiplierNfa::MarkAccepting(StateId s) {
  PQE_CHECK(s < num_states_);
  accepting_.push_back(s);
}

Status MultiplierNfa::AddTransition(StateId from, SymbolId symbol,
                                    uint64_t multiplier, StateId to,
                                    uint64_t width) {
  if (from >= num_states_ || to >= num_states_) {
    return Status::InvalidArgument("transition endpoint unknown");
  }
  const uint64_t min_width = GadgetDepth(std::max<uint64_t>(multiplier, 1));
  if (width == 0) width = min_width;
  if (width < min_width) {
    return Status::InvalidArgument("comparator width too small");
  }
  EnsureAlphabetSize(static_cast<size_t>(symbol) + 1);
  transitions_.push_back(Transition{from, symbol, multiplier, width, to});
  return Status::OK();
}

SymbolId MultiplierNfa::BitSymbol(int bit) const {
  PQE_CHECK(bit == 0 || bit == 1);
  return static_cast<SymbolId>(alphabet_size_ + static_cast<size_t>(bit));
}

Result<Nfa> MultiplierNfa::ToNfaStable(StableGadgetLayout* layout) const {
  PQE_CHECK(layout != nullptr);
  Nfa out;
  out.EnsureAlphabetSize(alphabet_size_ + 2);
  for (size_t s = 0; s < num_states_; ++s) out.AddState();
  for (StateId s : initial_) out.MarkInitial(s);
  for (StateId s : accepting_) out.MarkAccepting(s);
  *layout = StableGadgetLayout{};
  layout->bit0 = BitSymbol(0);
  layout->bit1 = BitSymbol(1);
  layout->sink = out.AddState();
  layout->slots.reserve(transitions_.size());
  for (const Transition& t : transitions_) {
    AppendStableSlot(&out, layout, t.from, t.symbol, t.width,
                     Span<StateId>(&t.to, 1), t.multiplier);
  }
  return out;
}

}  // namespace pqe
