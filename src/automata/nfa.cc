#include "automata/nfa.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"

namespace pqe {

StateId Nfa::AddState() {
  StateId id = static_cast<StateId>(num_states_);
  ++num_states_;
  is_initial_.push_back(false);
  is_accepting_.push_back(false);
  adjacency_valid_ = false;
  return id;
}

void Nfa::EnsureAlphabetSize(size_t size) {
  alphabet_size_ = std::max(alphabet_size_, size);
}

void Nfa::EnsureState(StateId s) { PQE_CHECK(s < num_states_); }

void Nfa::AddTransition(StateId from, SymbolId symbol, StateId to) {
  EnsureState(from);
  EnsureState(to);
  EnsureAlphabetSize(static_cast<size_t>(symbol) + 1);
  transitions_.push_back(Transition{from, symbol, to});
  adjacency_valid_ = false;
  in_valid_ = false;
}

void Nfa::SetTransitionTarget(uint32_t idx, StateId to) {
  PQE_CHECK(idx < transitions_.size());
  EnsureState(to);
  transitions_[idx].to = to;
  // from/symbol are untouched, so the out-CSR stays valid; only the index
  // keyed on the target has to be rebuilt.
  in_valid_ = false;
}

void Nfa::MarkInitial(StateId s) {
  EnsureState(s);
  if (!is_initial_[s]) {
    is_initial_[s] = true;
    initial_.push_back(s);
  }
}

void Nfa::MarkAccepting(StateId s) {
  EnsureState(s);
  is_accepting_[s] = true;
}

void Nfa::EnsureAdjacency() const {
  if (adjacency_valid_) return;
  const size_t S = num_states_;
  const size_t T = transitions_.size();
  // Counting sort by endpoint, stable in transition order, so per-state
  // lists keep the same (insertion) order the old vector-of-vectors layout
  // had — canonical-witness tie-breaking depends on it.
  out_offsets_.assign(S + 1, 0);
  for (const Transition& t : transitions_) ++out_offsets_[t.from + 1];
  for (size_t s = 0; s < S; ++s) out_offsets_[s + 1] += out_offsets_[s];
  out_idx_.resize(T);
  std::vector<uint32_t> out_cursor(out_offsets_.begin(),
                                   out_offsets_.end() - 1);
  for (uint32_t idx = 0; idx < T; ++idx) {
    out_idx_[out_cursor[transitions_[idx].from]++] = idx;
  }
  adjacency_valid_ = true;
}

void Nfa::EnsureInAdjacency() const {
  if (in_valid_) return;
  const size_t S = num_states_;
  const size_t T = transitions_.size();
  in_offsets_.assign(S + 1, 0);
  for (const Transition& t : transitions_) ++in_offsets_[t.to + 1];
  for (size_t s = 0; s < S; ++s) in_offsets_[s + 1] += in_offsets_[s];
  in_idx_.resize(T);
  std::vector<uint32_t> in_cursor(in_offsets_.begin(), in_offsets_.end() - 1);
  for (uint32_t idx = 0; idx < T; ++idx) {
    in_idx_[in_cursor[transitions_[idx].to]++] = idx;
  }
  in_valid_ = true;
}

Span<uint32_t> Nfa::OutTransitions(StateId s) const {
  PQE_CHECK(s < num_states_);
  EnsureAdjacency();
  return Span<uint32_t>(out_idx_.data() + out_offsets_[s],
                        out_offsets_[s + 1] - out_offsets_[s]);
}

Span<uint32_t> Nfa::InTransitions(StateId s) const {
  PQE_CHECK(s < num_states_);
  EnsureInAdjacency();
  return Span<uint32_t>(in_idx_.data() + in_offsets_[s],
                        in_offsets_[s + 1] - in_offsets_[s]);
}

std::vector<bool> Nfa::StatesAfter(const std::vector<SymbolId>& word) const {
  std::vector<bool> current = is_initial_;
  std::vector<bool> next(num_states_, false);
  for (SymbolId symbol : word) {
    std::fill(next.begin(), next.end(), false);
    for (const Transition& t : transitions_) {
      if (t.symbol == symbol && current[t.from]) next[t.to] = true;
    }
    std::swap(current, next);
  }
  return current;
}

bool Nfa::Accepts(const std::vector<SymbolId>& word) const {
  std::vector<bool> states = StatesAfter(word);
  for (StateId s = 0; s < num_states_; ++s) {
    if (states[s] && is_accepting_[s]) return true;
  }
  return false;
}

void Nfa::Trim() {
  EnsureAdjacency();
  // Forward reachability from initial states.
  std::vector<bool> fwd(num_states_, false);
  std::vector<StateId> stack;
  for (StateId s : initial_) {
    fwd[s] = true;
    stack.push_back(s);
  }
  while (!stack.empty()) {
    StateId s = stack.back();
    stack.pop_back();
    for (uint32_t idx : OutTransitions(s)) {
      StateId to = transitions_[idx].to;
      if (!fwd[to]) {
        fwd[to] = true;
        stack.push_back(to);
      }
    }
  }
  // Backward reachability from accepting states.
  std::vector<bool> bwd(num_states_, false);
  for (StateId s = 0; s < num_states_; ++s) {
    if (is_accepting_[s]) {
      bwd[s] = true;
      stack.push_back(s);
    }
  }
  while (!stack.empty()) {
    StateId s = stack.back();
    stack.pop_back();
    for (uint32_t idx : InTransitions(s)) {
      StateId from = transitions_[idx].from;
      if (!bwd[from]) {
        bwd[from] = true;
        stack.push_back(from);
      }
    }
  }
  // Rebuild with only useful states.
  std::vector<int64_t> remap(num_states_, -1);
  Nfa trimmed;
  trimmed.EnsureAlphabetSize(alphabet_size_);
  for (StateId s = 0; s < num_states_; ++s) {
    if (fwd[s] && bwd[s]) {
      remap[s] = trimmed.AddState();
      if (is_initial_[s]) trimmed.MarkInitial(static_cast<StateId>(remap[s]));
      if (is_accepting_[s]) {
        trimmed.MarkAccepting(static_cast<StateId>(remap[s]));
      }
    }
  }
  for (const Transition& t : transitions_) {
    if (remap[t.from] >= 0 && remap[t.to] >= 0) {
      trimmed.AddTransition(static_cast<StateId>(remap[t.from]), t.symbol,
                            static_cast<StateId>(remap[t.to]));
    }
  }
  *this = std::move(trimmed);
}

std::string Nfa::DebugString() const {
  std::ostringstream out;
  out << "NFA states=" << num_states_ << " transitions="
      << transitions_.size() << " alphabet=" << alphabet_size_ << "\n";
  for (const Transition& t : transitions_) {
    out << "  " << t.from << " --" << t.symbol << "--> " << t.to << "\n";
  }
  out << "  initial:";
  for (StateId s : initial_) out << " " << s;
  out << "\n  accepting:";
  for (StateId s = 0; s < num_states_; ++s) {
    if (is_accepting_[s]) out << " " << s;
  }
  out << "\n";
  return out.str();
}

}  // namespace pqe
