#include "automata/ops.h"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

namespace pqe {

Nfa UnionNfa(const Nfa& a, const Nfa& b) {
  Nfa out;
  out.EnsureAlphabetSize(std::max(a.AlphabetSize(), b.AlphabetSize()));
  std::vector<StateId> map_a(a.NumStates());
  std::vector<StateId> map_b(b.NumStates());
  for (StateId s = 0; s < a.NumStates(); ++s) map_a[s] = out.AddState();
  for (StateId s = 0; s < b.NumStates(); ++s) map_b[s] = out.AddState();
  for (const Nfa::Transition& t : a.transitions()) {
    out.AddTransition(map_a[t.from], t.symbol, map_a[t.to]);
  }
  for (const Nfa::Transition& t : b.transitions()) {
    out.AddTransition(map_b[t.from], t.symbol, map_b[t.to]);
  }
  for (StateId s = 0; s < a.NumStates(); ++s) {
    if (a.IsInitial(s)) out.MarkInitial(map_a[s]);
    if (a.IsAccepting(s)) out.MarkAccepting(map_a[s]);
  }
  for (StateId s = 0; s < b.NumStates(); ++s) {
    if (b.IsInitial(s)) out.MarkInitial(map_b[s]);
    if (b.IsAccepting(s)) out.MarkAccepting(map_b[s]);
  }
  return out;
}

Nfa IntersectNfa(const Nfa& a, const Nfa& b) {
  Nfa out;
  out.EnsureAlphabetSize(std::max(a.AlphabetSize(), b.AlphabetSize()));
  std::map<std::pair<StateId, StateId>, StateId> states;
  std::vector<std::pair<StateId, StateId>> worklist;
  auto intern = [&](StateId qa, StateId qb) {
    auto [it, inserted] = states.emplace(std::make_pair(qa, qb), 0);
    if (inserted) {
      it->second = out.AddState();
      if (a.IsAccepting(qa) && b.IsAccepting(qb)) {
        out.MarkAccepting(it->second);
      }
      worklist.emplace_back(qa, qb);
    }
    return it->second;
  };
  for (StateId qa : a.initial_states()) {
    for (StateId qb : b.initial_states()) {
      out.MarkInitial(intern(qa, qb));
    }
  }
  while (!worklist.empty()) {
    auto [qa, qb] = worklist.back();
    worklist.pop_back();
    const StateId from = states.at({qa, qb});
    for (uint32_t ia : a.OutTransitions(qa)) {
      const Nfa::Transition& ta = a.transitions()[ia];
      for (uint32_t ib : b.OutTransitions(qb)) {
        const Nfa::Transition& tb = b.transitions()[ib];
        if (ta.symbol != tb.symbol) continue;
        out.AddTransition(from, ta.symbol, intern(ta.to, tb.to));
      }
    }
  }
  return out;
}

Nfa ReverseNfa(const Nfa& a) {
  Nfa out;
  out.EnsureAlphabetSize(a.AlphabetSize());
  for (StateId s = 0; s < a.NumStates(); ++s) out.AddState();
  for (const Nfa::Transition& t : a.transitions()) {
    out.AddTransition(t.to, t.symbol, t.from);
  }
  for (StateId s = 0; s < a.NumStates(); ++s) {
    if (a.IsAccepting(s)) out.MarkInitial(s);
    if (a.IsInitial(s)) out.MarkAccepting(s);
  }
  return out;
}

Result<Nfta> UnionNfta(const Nfta& a, const Nfta& b) {
  if (a.HasLambdaTransitions() || b.HasLambdaTransitions()) {
    return Status::InvalidArgument("UnionNfta requires λ-free inputs");
  }
  Nfta out;
  out.EnsureAlphabetSize(std::max(a.AlphabetSize(), b.AlphabetSize()));
  std::vector<StateId> map_a(a.NumStates());
  std::vector<StateId> map_b(b.NumStates());
  for (StateId s = 0; s < a.NumStates(); ++s) map_a[s] = out.AddState();
  for (StateId s = 0; s < b.NumStates(); ++s) map_b[s] = out.AddState();
  const StateId init = out.AddState();
  out.SetInitialState(init);
  auto copy = [&](const Nfta& src, const std::vector<StateId>& map) {
    for (const Nfta::Transition& t : src.transitions()) {
      std::vector<StateId> children;
      children.reserve(t.children.size());
      for (StateId c : t.children) children.push_back(map[c]);
      out.AddTransition(map[t.from], t.symbol, children);
      if (t.from == src.initial_state()) {
        out.AddTransition(init, t.symbol, std::move(children));
      }
    }
  };
  copy(a, map_a);
  copy(b, map_b);
  return out;
}

Nfta UnaryNfta(const Nfa& a) {
  Nfta out;
  out.EnsureAlphabetSize(a.AlphabetSize());
  for (StateId s = 0; s < a.NumStates(); ++s) out.AddState();
  const StateId root = out.AddState();
  out.SetInitialState(root);
  for (const Nfa::Transition& t : a.transitions()) {
    out.AddTransitionView(t.to, t.symbol, Span<StateId>(&t.from, 1));
  }
  // The first symbols: leaves (q, a) for the edges initial --a--> q.
  std::vector<SymbolId> first;
  std::vector<std::pair<SymbolId, StateId>> last;  // root's (a, p)
  std::vector<SymbolId> root_leaves;
  for (StateId q = 0; q < a.NumStates(); ++q) {
    first.clear();
    for (uint32_t idx : a.InTransitions(q)) {
      const Nfa::Transition& t = a.transitions()[idx];
      if (a.IsInitial(t.from)) first.push_back(t.symbol);
      if (a.IsAccepting(q)) last.emplace_back(t.symbol, t.from);
    }
    std::sort(first.begin(), first.end());
    first.erase(std::unique(first.begin(), first.end()), first.end());
    for (SymbolId symbol : first) out.AddTransition(q, symbol, {});
    if (a.IsAccepting(q)) {
      root_leaves.insert(root_leaves.end(), first.begin(), first.end());
    }
  }
  std::sort(last.begin(), last.end());
  last.erase(std::unique(last.begin(), last.end()), last.end());
  for (const auto& [symbol, p] : last) {
    out.AddTransitionView(root, symbol, Span<StateId>(&p, 1));
  }
  std::sort(root_leaves.begin(), root_leaves.end());
  root_leaves.erase(std::unique(root_leaves.begin(), root_leaves.end()),
                    root_leaves.end());
  for (SymbolId symbol : root_leaves) out.AddTransition(root, symbol, {});
  return out;
}

}  // namespace pqe
