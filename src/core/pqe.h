#ifndef PQE_CORE_PQE_H_
#define PQE_CORE_PQE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "automata/nfta.h"
#include "core/gadget_bind.h"
#include "core/ur_construction.h"
#include "counting/config.h"
#include "cq/query.h"
#include "pdb/database.h"
#include "pdb/probabilistic_database.h"
#include "util/bigint.h"
#include "util/extfloat.h"
#include "util/result.h"

namespace pqe {

/// The probability-independent half of the Theorem 1 construction: the
/// hypertree decomposition and the Proposition 1 automaton, built from the
/// query and the plain database only. A skeleton can be compiled once per
/// (query, database) pair and bound to any probability labelling of the same
/// facts via BindPqeAutomaton — that split is what the serving layer
/// (src/serve/) amortizes across requests.
struct PqeSkeleton {
  UrAutomaton ur;                     // Proposition 1, over the projected db
  std::vector<FactId> original_fact;  // projected FactId -> original FactId
  size_t dropped_facts = 0;           // |D| − |D'|
};

/// Builds the probability-independent skeleton for a self-join-free
/// conjunctive query of bounded hypertree width over a plain database.
Result<PqeSkeleton> BuildPqeSkeleton(const ConjunctiveQuery& query,
                                     const Database& db,
                                     const UrConstructionOptions& options);

/// The probability-dependent half: the §5.1 multiplier-gadget expansion of a
/// skeleton under concrete fact probabilities (core/gadget_bind.h), in the
/// value-stable slotted layout (untrimmed — dead branches route into the
/// layout's sink and are discarded by the counting layers' liveness
/// pruning), ready to count.
struct BoundPqeAutomaton {
  Nfta weighted;         // T' — gadget-expanded, value-stable layout
  size_t tree_size = 0;  // k = |D'| + Σ width_i
  BigUint denominator;   // d = Π d_i over projected facts
  /// Fact → gadget-slot provenance enabling RebindPqeAutomaton.
  std::shared_ptr<const PqeBindLayout> layout;
};

/// Attaches multiplier gadgets for `probs` (one Probability per *projected*
/// fact, in projected FactId order — see ProjectedFactProbabilities) to the
/// skeleton. Deterministic: rebinding a cached skeleton yields the same
/// automaton, bit for bit, as a cold BuildPqeAutomaton at equal inputs.
Result<BoundPqeAutomaton> BindPqeAutomaton(
    const PqeSkeleton& skeleton, const std::vector<Probability>& probs);

/// Delta rebind: clones `prior` (warm CSR adjacency survives the copy; only
/// the run-state index of patched automata is lazily rebuilt) and patches
/// the gadget slots of every fact whose probability differs between
/// `old_probs` (the labelling `prior` was bound at) and `new_probs`.
/// Bit-identical to BindPqeAutomaton(skeleton, new_probs) by construction —
/// the patch routine is the canonical writer of slot targets. Fails with
/// InvalidArgument when a changed fact's denominator differs from the one
/// the slot widths were sized for (shape change: caller falls back to a full
/// bind). `patched_slots` (optional) receives the number of gadget slots
/// rewritten.
Result<BoundPqeAutomaton> RebindPqeAutomaton(
    const BoundPqeAutomaton& prior, const std::vector<Probability>& old_probs,
    const std::vector<Probability>& new_probs,
    size_t* patched_slots = nullptr);

/// The Theorem 1 artifact: the Proposition 1 automaton with the Section 5
/// multiplier gadgets attached, so that
///   Pr_H(Q) = d⁻¹ · |L_k(T')|,
/// where d = Π d_i is the common denominator of the (projected) fact labels
/// and k = |D'| + Σ_i width_i is the uniform tree size after padding.
///
/// Note on padding: the paper states k = |D| + Σ u(w_i), implicitly assuming
/// that the positive branch (multiplier w_i) and the negative branch
/// (multiplier d_i − w_i) of a fact add the same number of gadget nodes. In
/// general u(w_i) ≠ u(d_i − w_i), which would scatter the accepted trees
/// across different size strata; we therefore pad both branches of fact i to
/// the common comparator width width_i = u(d_i) ≥ max(u(w_i), u(d_i − w_i))
/// — the count identity then holds exactly at stratum k, and the width
/// depends only on the denominator, which keeps the automaton's shape
/// labelling-value independent (the precondition for delta rebinds).
struct PqeAutomaton {
  UrAutomaton ur;          // the underlying Proposition 1 construction
  Nfta weighted;           // T' — gadget-expanded, value-stable layout
  size_t tree_size = 0;    // k
  BigUint denominator;     // d = Π d_i over projected facts
};

/// Builds the Theorem 1 automaton for a self-join-free conjunctive query of
/// bounded hypertree width over a probabilistic database. Implemented as
/// BuildPqeSkeleton + BindPqeAutomaton, so cached-skeleton rebinds (the
/// serving layer's warm path) are bit-identical to this cold build.
Result<PqeAutomaton> BuildPqeAutomaton(const ConjunctiveQuery& query,
                                       const ProbabilisticDatabase& pdb,
                                       const UrConstructionOptions& options);

/// PQEEstimate (Theorem 1): (1±ε)-approximates Pr_H(Q) with high
/// probability, in time poly(|Q|, |H|, 1/ε).
struct PqeEstimateResult {
  /// The probability estimate, projected into [0, 1] (the raw count ratio
  /// can exceed 1 within its ε band; see log2_probability for the raw value).
  double probability = 0.0;
  /// log2 of the estimate (finite even when the probability underflows).
  double log2_probability = 0.0;
  ExtFloat tree_count;      // |L_k(T')| estimate
  size_t tree_size = 0;     // k
  size_t nfta_states = 0;   // of T'
  size_t nfta_transitions = 0;
  size_t decomposition_width = 0;
  CountStats stats;
};
Result<PqeEstimateResult> PqeEstimate(const ConjunctiveQuery& query,
                                      const ProbabilisticDatabase& pdb,
                                      const EstimatorConfig& config,
                                      const UrConstructionOptions& options = {});

/// Exact companion (test oracle): counts |L_k(T')| exactly and returns the
/// exact rational d⁻¹·|L_k|. Exponential worst case.
Result<BigRational> PqeExactViaAutomaton(
    const ConjunctiveQuery& query, const ProbabilisticDatabase& pdb,
    const UrConstructionOptions& options = {});

}  // namespace pqe

#endif  // PQE_CORE_PQE_H_
