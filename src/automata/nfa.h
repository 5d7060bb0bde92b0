#ifndef PQE_AUTOMATA_NFA_H_
#define PQE_AUTOMATA_NFA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/span.h"

namespace pqe {

/// State index within an automaton.
using StateId = uint32_t;
/// Input symbol. Symbol meaning is owned by the construction that builds the
/// automaton (e.g. fact literals for the Section 3 reduction).
using SymbolId = uint32_t;

/// A non-deterministic finite string automaton (S, Σ, δ, I, F) (Section 2).
/// Supports multiple initial states, as used by the path-query construction.
///
/// Storage is hot-path oriented: transitions live in one contiguous vector
/// and the per-state adjacency (out/in transition indices) is a CSR layout —
/// one flat index arena plus per-state (offset, length) — built lazily on
/// first access and invalidated by AddTransition. Accessors hand out
/// Span<uint32_t> views into the arena, so the inner simulation loops touch
/// no per-state heap blocks.
class Nfa {
 public:
  struct Transition {
    StateId from;
    SymbolId symbol;
    StateId to;
  };

  Nfa() = default;

  /// Adds a fresh state and returns its id.
  StateId AddState();
  /// Declares the alphabet size; symbols must be < alphabet_size. Growing is
  /// implicit when AddTransition sees a larger symbol.
  void EnsureAlphabetSize(size_t size);

  void AddTransition(StateId from, SymbolId symbol, StateId to);
  void MarkInitial(StateId s);
  void MarkAccepting(StateId s);

  /// Retargets an existing transition in place. The structural indexes keyed
  /// on `from` and `symbol` (the out-CSR) stay valid — only the in-CSR is
  /// invalidated and lazily rebuilt on the next InTransitions/WarmAdjacency.
  /// This is the primitive the delta-rebind path (core/path_pqe.h) uses to
  /// patch multiplier-gadget targets without recompiling the bind.
  void SetTransitionTarget(uint32_t idx, StateId to);

  size_t NumStates() const { return num_states_; }
  size_t NumTransitions() const { return transitions_.size(); }
  size_t AlphabetSize() const { return alphabet_size_; }
  const std::vector<Transition>& transitions() const { return transitions_; }
  const std::vector<StateId>& initial_states() const { return initial_; }
  bool IsInitial(StateId s) const { return is_initial_.at(s); }
  bool IsAccepting(StateId s) const { return is_accepting_.at(s); }

  /// Outgoing transitions of a state (indices into transitions()), in
  /// insertion order. The view is invalidated by AddTransition.
  Span<uint32_t> OutTransitions(StateId s) const;
  /// Incoming transitions of a state (indices into transitions()), in
  /// insertion order. The view is invalidated by AddTransition.
  Span<uint32_t> InTransitions(StateId s) const;

  /// Builds the lazy CSR adjacency now. The accessors build it on first use,
  /// which mutates `mutable` members — call this before sharing a const Nfa
  /// across threads (the parallel median-of-R reps do), after which
  /// concurrent accessor calls are read-only and race-free. After
  /// SetTransitionTarget only the in-CSR is rebuilt; the out-CSR is reused.
  void WarmAdjacency() const {
    EnsureAdjacency();
    EnsureInAdjacency();
  }

  /// Subset simulation: the set of states reachable from the initial states
  /// by reading `word`, as a bitvector indexed by StateId.
  std::vector<bool> StatesAfter(const std::vector<SymbolId>& word) const;

  /// Standard acceptance test.
  bool Accepts(const std::vector<SymbolId>& word) const;

  /// The paper's |M| measure: a proxy for the encoding size of δ
  /// (one entry = from + symbol + to).
  size_t SizeMeasure() const { return 3 * transitions_.size(); }

  /// Removes states that are not both reachable from an initial state and
  /// co-reachable to an accepting state. Counting algorithms assume trimmed
  /// automata so that every stratum is "useful".
  void Trim();

  std::string DebugString() const;

 private:
  void EnsureState(StateId s);
  void EnsureAdjacency() const;
  void EnsureInAdjacency() const;

  size_t num_states_ = 0;
  size_t alphabet_size_ = 0;
  std::vector<Transition> transitions_;
  std::vector<StateId> initial_;
  std::vector<bool> is_initial_;
  std::vector<bool> is_accepting_;

  // Lazy CSR adjacency: out_idx_/in_idx_ hold transition indices grouped by
  // state; offsets have num_states_ + 1 entries. Rebuilt (counting sort,
  // stable in transition order) whenever a transition was added. The two
  // directions carry separate validity so a target-only rewrite
  // (SetTransitionTarget) invalidates just the in-CSR.
  mutable bool adjacency_valid_ = false;
  mutable bool in_valid_ = false;
  mutable std::vector<uint32_t> out_offsets_;
  mutable std::vector<uint32_t> out_idx_;
  mutable std::vector<uint32_t> in_offsets_;
  mutable std::vector<uint32_t> in_idx_;
};

}  // namespace pqe

#endif  // PQE_AUTOMATA_NFA_H_
