#include "counting/count_nfa.h"

#include <algorithm>
#include <vector>

#include "automata/ops.h"
#include "counting/count_nfta.h"

namespace pqe {

namespace {

constexpr CounterNames kStringNames{"count.nfa", "count.nfa.rep",
                                    "pqe.count_nfa", "count_nfa",
                                    "length", "word_length"};

}  // namespace

Result<CountEstimate> CountNfaStrings(const Nfa& nfa, size_t n,
                                      const EstimatorConfig& config) {
  if (config.epsilon <= 0.0 || config.epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  // L_0 is {λ} or empty, and no tree has size 0: the count is exact.
  if (n == 0) {
    const std::vector<StateId>& initial = nfa.initial_states();
    const bool accepts =
        std::any_of(initial.begin(), initial.end(),
                    [&nfa](StateId s) { return nfa.IsAccepting(s); });
    return CountEstimate{accepts ? ExtFloat::FromUint64(1) : ExtFloat(),
                         CountStats{}};
  }
  // Trimmed first: a state that reaches no accepting state (the bind
  // layout's sink) would otherwise be feasible at every length.
  Nfa trimmed = nfa;
  trimmed.Trim();
  return CountNftaTrees(UnaryNfta(trimmed), n, config, kStringNames);
}

}  // namespace pqe
