#include "core/pqe.h"

#include <utility>
#include <vector>

#include "automata/multiplier_nfta.h"
#include "core/projection.h"
#include "counting/count_nfta.h"
#include "counting/exact.h"
#include "obs/trace.h"
#include "util/check.h"

namespace pqe {

Result<PqeSkeleton> BuildPqeSkeleton(const ConjunctiveQuery& query,
                                     const Database& db,
                                     const UrConstructionOptions& options) {
  PQE_TRACE_SPAN_VAR(span, "pqe.build_skeleton");
  span.AttrUint("facts", db.NumFacts());
  PqeSkeleton out;
  // Theorem 1's WLOG: facts over relations outside Q marginalize to 1 and
  // are dropped before the automaton (and later the denominator d) is built.
  PQE_ASSIGN_OR_RETURN(ProjectedDatabase proj, ProjectDatabase(db, query));
  out.original_fact = std::move(proj.original_fact);
  out.dropped_facts = proj.dropped_facts;
  PQE_ASSIGN_OR_RETURN(out.ur, BuildUrAutomaton(query, proj.db, options));
  // BuildUrAutomaton projects again internally; it is a no-op here, and the
  // projected FactIds used as symbols line up with proj.db's FactIds.
  span.AttrUint("tree_size", out.ur.tree_size);
  return out;
}

Result<BoundPqeAutomaton> BindPqeAutomaton(
    const PqeSkeleton& skeleton, const std::vector<Probability>& probs) {
  PQE_TRACE_SPAN_VAR(span, "pqe.bind");
  span.AttrUint("facts", probs.size());
  const Nfta& base = skeleton.ur.nfta;
  // Every transition of the translated Proposition 1 automaton consumes one
  // fact literal; its slot carries w_i on a positive literal and d_i − w_i
  // on a negative one.
  std::vector<SymbolId> literals;
  literals.reserve(base.NumTransitions());
  for (const Nfta::Transition& t : base.transitions()) {
    PQE_CHECK(t.symbol != Nfta::kLambdaSymbol);
    literals.push_back(t.symbol);
  }
  PQE_ASSIGN_OR_RETURN(GadgetBindPlan plan,
                       PlanGadgetBind(probs, literals, "BindPqeAutomaton"));
  MultiplierNfta mult = MultiplierNfta::FromSkeleton(base);
  for (uint32_t s = 0; s < base.NumTransitions(); ++s) {
    const Nfta::Transition& t = base.transitions()[s];
    PQE_RETURN_IF_ERROR(mult.AddTransition(
        t.from, t.symbol, plan.layout->Multiplier(s, probs),
        t.children.ToVector(), plan.layout->Width(s)));
  }
  BoundPqeAutomaton out;
  // k = |D'| + Σ width_i.
  out.tree_size = skeleton.ur.tree_size + plan.gadget_symbols;
  out.denominator = std::move(plan.denominator);
  {
    PQE_TRACE_SPAN_VAR(mult_span, "pqe.multiplier_translate");
    PQE_ASSIGN_OR_RETURN(out.weighted,
                         mult.ToNftaStable(&plan.layout->stable));
    // No Trim: the stable layout's dead branches (sink rules) are what keep
    // the shape value-independent; the counting layers' forward/backward
    // liveness pruning discards them at estimation time.
    mult_span.AttrUint("nfta_states", out.weighted.NumStates());
    mult_span.AttrUint("nfta_transitions", out.weighted.NumTransitions());
  }
  out.layout = std::move(plan.layout);
  span.AttrUint("tree_size", out.tree_size);
  return out;
}

Result<BoundPqeAutomaton> RebindPqeAutomaton(
    const BoundPqeAutomaton& prior, const std::vector<Probability>& old_probs,
    const std::vector<Probability>& new_probs, size_t* patched_slots) {
  PQE_TRACE_SPAN_VAR(span, "pqe.delta_rebind");
  if (patched_slots != nullptr) *patched_slots = 0;
  BoundPqeAutomaton out;
  PQE_ASSIGN_OR_RETURN(
      const size_t patched,
      PatchGadgetDelta(prior.layout.get(), old_probs, new_probs,
                       "RebindPqeAutomaton", prior.weighted, &out.weighted));
  out.tree_size = prior.tree_size;
  out.denominator = prior.denominator;  // dens unchanged ⇒ d unchanged
  out.layout = prior.layout;
  if (patched_slots != nullptr) *patched_slots = patched;
  span.AttrUint("patched_slots", patched);
  return out;
}

Result<PqeAutomaton> BuildPqeAutomaton(const ConjunctiveQuery& query,
                                       const ProbabilisticDatabase& pdb,
                                       const UrConstructionOptions& options) {
  PQE_TRACE_SPAN_VAR(span, "pqe.build_automaton");
  span.AttrUint("facts", pdb.NumFacts());
  // The cold path is the skeleton/bind composition, so a warm rebind of a
  // cached skeleton (src/serve/) is bit-identical to this by construction.
  PQE_ASSIGN_OR_RETURN(PqeSkeleton skeleton,
                       BuildPqeSkeleton(query, pdb.database(), options));
  PQE_ASSIGN_OR_RETURN(
      std::vector<Probability> probs,
      ProjectedFactProbabilities(skeleton.original_fact, pdb));
  PQE_ASSIGN_OR_RETURN(BoundPqeAutomaton bound,
                       BindPqeAutomaton(skeleton, probs));
  PqeAutomaton out;
  out.ur = std::move(skeleton.ur);
  out.weighted = std::move(bound.weighted);
  out.tree_size = bound.tree_size;
  out.denominator = std::move(bound.denominator);
  span.AttrUint("tree_size", out.tree_size);
  return out;
}

Result<PqeEstimateResult> PqeEstimate(const ConjunctiveQuery& query,
                                      const ProbabilisticDatabase& pdb,
                                      const EstimatorConfig& config,
                                      const UrConstructionOptions& options) {
  PQE_TRACE_SPAN_VAR(span, "pqe.estimate");
  PQE_ASSIGN_OR_RETURN(PqeAutomaton automaton,
                       BuildPqeAutomaton(query, pdb, options));
  PqeEstimateResult out;
  out.tree_size = automaton.tree_size;
  out.nfta_states = automaton.weighted.NumStates();
  out.nfta_transitions = automaton.weighted.NumTransitions();
  out.decomposition_width = automaton.ur.hd.Width();
  PQE_ASSIGN_OR_RETURN(
      CountEstimate count,
      CountNftaTrees(automaton.weighted, automaton.tree_size, config));
  out.stats = count.stats;
  out.tree_count = count.value;
  // Pr_H(Q) = d⁻¹ · |L_k(T')|, projected into [0, 1]; log2_probability
  // stays unclamped for diagnostics.
  out.log2_probability = Log2Probability(count.value, automaton.denominator);
  out.probability = ClampProbability(out.log2_probability);
  return out;
}

Result<BigRational> PqeExactViaAutomaton(const ConjunctiveQuery& query,
                                         const ProbabilisticDatabase& pdb,
                                         const UrConstructionOptions& options) {
  PQE_ASSIGN_OR_RETURN(PqeAutomaton automaton,
                       BuildPqeAutomaton(query, pdb, options));
  PQE_ASSIGN_OR_RETURN(
      BigUint count,
      ExactCountNftaTrees(automaton.weighted, automaton.tree_size));
  return BigRational(std::move(count), automaton.denominator);
}

}  // namespace pqe
