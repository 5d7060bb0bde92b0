#ifndef PQE_CORE_GADGET_BIND_H_
#define PQE_CORE_GADGET_BIND_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "automata/multiplier_gadget.h"
#include "pdb/database.h"
#include "pdb/probabilistic_database.h"
#include "util/bigint.h"
#include "util/extfloat.h"
#include "util/result.h"

namespace pqe {

/// The probability-dependent half of Theorem 1, shared by both automaton
/// routes. The tree route (core/pqe.h) and the string route
/// (core/path_pqe.h) each keep only what differs between them: translating
/// their skeleton's transitions into gadget slots, and the type of automaton
/// they clone. Validating a labelling, sizing gadget widths, the common
/// denominator, the fact → slot provenance, the validate-and-patch delta
/// rebind and the final d⁻¹ · |L_k| arithmetic are written once, here.

/// Provenance of a stable probability bind: where each projected fact's
/// gadget slots live in the translated automaton, and the per-fact
/// denominators the slot widths were sized for. Immutable after the bind;
/// shared between a bind and every delta-rebound clone of it.
struct PqeBindLayout {
  StableGadgetLayout stable;
  /// fact -> slot-index CSR (slot = StableGadgetLayout::slots entry; one
  /// slot per skeleton transition consuming one of the fact's literals).
  std::vector<uint32_t> fact_offsets;  // probs.size() + 1 entries
  std::vector<uint32_t> fact_slots;
  /// Per slot: 1 when the slot carries the fact's negative literal
  /// (multiplier d_i − w_i), 0 for the positive one (w_i).
  std::vector<uint8_t> slot_negative;
  /// Per slot: the projected fact whose probability it encodes.
  std::vector<FactId> slot_fact;
  /// Per fact: the denominator its slot widths were sized for. A delta that
  /// changes a fact's denominator changes the shape and cannot be patched.
  std::vector<uint64_t> fact_den;

  /// The multiplier slot `slot` encodes under the labelling `probs`.
  uint64_t Multiplier(uint32_t slot,
                      const std::vector<Probability>& probs) const {
    const Probability& p = probs[slot_fact[slot]];
    return slot_negative[slot] ? p.den - p.num : p.num;
  }
  /// The comparator width of slot `slot`: GadgetDepth(d_i) covers every
  /// multiplier 0..d_i the fact can take, so the automaton's shape depends
  /// only on the denominators, never the numerators.
  uint64_t Width(uint32_t slot) const {
    return GadgetDepth(fact_den[slot_fact[slot]]);
  }
};

/// What a bind fixes before its route translates the skeleton.
struct GadgetBindPlan {
  std::shared_ptr<PqeBindLayout> layout;  // `stable` filled by translation
  BigUint denominator;        // d = Π d_i over projected facts
  size_t gadget_symbols = 0;  // Σ width_i: added to the stratum length k
};

/// The shared bind step. Validates `probs` (one rational in [0, 1] per
/// projected fact), computes d and Σ width_i, and records one slot per
/// skeleton transition, where `literals[s]` is the fact literal transition
/// s consumes. Every literal gets a slot, including impossible
/// (multiplier-0) branches, which the stable translation routes into its
/// sink so that a later delta can resurrect them by patching. `caller`
/// prefixes error messages.
Result<GadgetBindPlan> PlanGadgetBind(const std::vector<Probability>& probs,
                                      const std::vector<SymbolId>& literals,
                                      const char* caller);

/// The shared validate-and-patch rebind: checks that `layout` exists
/// and that every fact whose probability differs between `old_probs` (the
/// labelling `prior` was bound at) and `new_probs` keeps its denominator
/// and stays in [0, 1] — before touching anything, so a failed rebind has
/// no effects. Then copies `prior` into `*out` and rewrites the changed
/// facts' slots with PatchStableSlot, the canonical writer the translation
/// itself uses, so the result is bit-identical to a full bind of
/// `new_probs`. Returns the number of slots rewritten. A changed
/// denominator is InvalidArgument: the shape differs and the caller falls
/// back to a full bind. `Automaton` is Nfa or Nfta (instantiated in
/// gadget_bind.cc).
template <typename Automaton>
Result<size_t> PatchGadgetDelta(const PqeBindLayout* layout,
                                const std::vector<Probability>& old_probs,
                                const std::vector<Probability>& new_probs,
                                const char* caller, const Automaton& prior,
                                Automaton* out);

/// Theorem 1's last step: log2 of Pr_H(Q) = d⁻¹ · |L_k| for an estimated
/// count of accepted trees or strings. Unclamped — the raw estimate can
/// exceed 1 within its ε band — and finite even when the probability
/// underflows a double.
double Log2Probability(const ExtFloat& count, const BigUint& denominator);

/// The estimate projected into [0, 1]. Projecting onto the feasible set
/// never increases the error.
double ClampProbability(double log2_probability);

}  // namespace pqe

#endif  // PQE_CORE_GADGET_BIND_H_
