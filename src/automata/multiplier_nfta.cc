#include "automata/multiplier_nfta.h"

#include <algorithm>

#include "util/check.h"

namespace pqe {

MultiplierNfta MultiplierNfta::FromSkeleton(const Nfta& base) {
  MultiplierNfta out;
  out.num_states_ = base.NumStates();
  out.alphabet_size_ = base.AlphabetSize();
  out.initial_ = base.initial_state();
  return out;
}

StateId MultiplierNfta::AddState() {
  return static_cast<StateId>(num_states_++);
}

void MultiplierNfta::EnsureAlphabetSize(size_t size) {
  alphabet_size_ = std::max(alphabet_size_, size);
}

void MultiplierNfta::SetInitialState(StateId s) {
  PQE_CHECK(s < num_states_);
  initial_ = s;
}

Status MultiplierNfta::AddTransition(StateId from, SymbolId symbol,
                                     uint64_t multiplier,
                                     std::vector<StateId> children,
                                     uint64_t width) {
  if (from >= num_states_) {
    return Status::InvalidArgument("transition from unknown state");
  }
  for (StateId c : children) {
    if (c >= num_states_) {
      return Status::InvalidArgument("transition to unknown state");
    }
  }
  const uint64_t min_width = GadgetDepth(std::max<uint64_t>(multiplier, 1));
  if (width == 0) width = min_width;
  if (width < min_width) {
    return Status::InvalidArgument(
        "comparator width too small for multiplier");
  }
  EnsureAlphabetSize(static_cast<size_t>(symbol) + 1);
  transitions_.push_back(
      Transition{from, symbol, multiplier, width, std::move(children)});
  return Status::OK();
}

SymbolId MultiplierNfta::BitSymbol(int bit) const {
  PQE_CHECK(bit == 0 || bit == 1);
  return static_cast<SymbolId>(alphabet_size_ + static_cast<size_t>(bit));
}

Result<Nfta> MultiplierNfta::ToNftaStable(StableGadgetLayout* layout) const {
  PQE_CHECK(layout != nullptr);
  Nfta out;
  // Σ' = Σ ∪ {0, 1}; bit symbols take the next two ids.
  out.EnsureAlphabetSize(alphabet_size_ + 2);
  for (size_t s = 0; s < num_states_; ++s) out.AddState();
  out.SetInitialState(initial_);
  *layout = StableGadgetLayout{};
  layout->bit0 = BitSymbol(0);
  layout->bit1 = BitSymbol(1);
  layout->sink = out.AddState();
  layout->slots.reserve(transitions_.size());
  for (const Transition& t : transitions_) {
    AppendStableSlot(&out, layout, t.from, t.symbol, t.width,
                     Span<StateId>(t.children), t.multiplier);
  }
  return out;
}

}  // namespace pqe
