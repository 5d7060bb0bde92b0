#include "core/gadget_bind.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "automata/augmented_nfta.h"  // literal encoding helpers
#include "automata/nfta.h"

namespace pqe {

namespace {

Status Invalid(const char* caller, const char* what) {
  return Status::InvalidArgument(std::string(caller) + ": " + what);
}

bool SameProbability(const Probability& a, const Probability& b) {
  return a.num == b.num && a.den == b.den;
}

}  // namespace

Result<GadgetBindPlan> PlanGadgetBind(const std::vector<Probability>& probs,
                                      const std::vector<SymbolId>& literals,
                                      const char* caller) {
  GadgetBindPlan plan;
  plan.layout = std::make_shared<PqeBindLayout>();
  PqeBindLayout& layout = *plan.layout;
  plan.denominator = BigUint(1);
  layout.fact_den.resize(probs.size());
  for (FactId f = 0; f < probs.size(); ++f) {
    const Probability p = probs[f];
    if (p.den < 1 || p.num > p.den) {
      return Invalid(caller, "fact probability not a rational in [0, 1]");
    }
    layout.fact_den[f] = p.den;
    plan.denominator = plan.denominator.MulU64(p.den);
    // k gains the fact's comparator nodes whether it is present or absent.
    plan.gadget_symbols += static_cast<size_t>(GadgetDepth(p.den));
  }
  layout.slot_fact.reserve(literals.size());
  layout.slot_negative.reserve(literals.size());
  for (SymbolId literal : literals) {
    const FactId f = LiteralBase(literal);
    if (f >= probs.size()) {
      return Invalid(caller,
                     "probability vector does not cover the skeleton's "
                     "projected facts");
    }
    layout.slot_fact.push_back(f);
    layout.slot_negative.push_back(IsNegativeLiteral(literal) ? 1 : 0);
  }
  // fact → slot CSR (counting sort, stable in slot order).
  layout.fact_offsets.assign(probs.size() + 1, 0);
  for (FactId f : layout.slot_fact) ++layout.fact_offsets[f + 1];
  for (size_t f = 0; f < probs.size(); ++f) {
    layout.fact_offsets[f + 1] += layout.fact_offsets[f];
  }
  layout.fact_slots.resize(layout.slot_fact.size());
  std::vector<uint32_t> cursor(layout.fact_offsets.begin(),
                               layout.fact_offsets.end() - 1);
  for (uint32_t s = 0; s < layout.slot_fact.size(); ++s) {
    layout.fact_slots[cursor[layout.slot_fact[s]]++] = s;
  }
  return plan;
}

template <typename Automaton>
Result<size_t> PatchGadgetDelta(const PqeBindLayout* layout,
                                const std::vector<Probability>& old_probs,
                                const std::vector<Probability>& new_probs,
                                const char* caller, const Automaton& prior,
                                Automaton* out) {
  if (layout == nullptr) return Invalid(caller, "prior bind carries no layout");
  if (old_probs.size() != layout->fact_den.size() ||
      new_probs.size() != layout->fact_den.size()) {
    return Invalid(caller, "probability vector size mismatch");
  }
  // Validate before touching anything, so a failed rebind has no effects.
  for (FactId f = 0; f < new_probs.size(); ++f) {
    const Probability np = new_probs[f];
    if (SameProbability(np, old_probs[f])) continue;
    if (np.den != layout->fact_den[f]) {
      return Invalid(caller,
                     "fact denominator changed — gadget widths differ, full "
                     "rebind required");
    }
    if (np.num > np.den) {
      return Invalid(caller, "fact probability not a rational in [0, 1]");
    }
  }
  // The copy keeps the warm indexes keyed on (from, symbol); patching only
  // invalidates the target-keyed ones.
  *out = prior;
  size_t patched = 0;
  for (FactId f = 0; f < new_probs.size(); ++f) {
    if (SameProbability(new_probs[f], old_probs[f])) continue;
    for (uint32_t i = layout->fact_offsets[f]; i < layout->fact_offsets[f + 1];
         ++i) {
      const uint32_t slot = layout->fact_slots[i];
      PatchStableSlot(out, layout->stable, slot,
                      layout->Multiplier(slot, new_probs));
      ++patched;
    }
  }
  return patched;
}

template Result<size_t> PatchGadgetDelta<Nfa>(
    const PqeBindLayout*, const std::vector<Probability>&,
    const std::vector<Probability>&, const char*, const Nfa&, Nfa*);
template Result<size_t> PatchGadgetDelta<Nfta>(
    const PqeBindLayout*, const std::vector<Probability>&,
    const std::vector<Probability>&, const char*, const Nfta&, Nfta*);

double Log2Probability(const ExtFloat& count, const BigUint& denominator) {
  return count.Log2() - ExtFloat::FromBigUint(denominator).Log2();
}

double ClampProbability(double log2_probability) {
  return std::min(std::exp2(log2_probability), 1.0);
}

}  // namespace pqe
