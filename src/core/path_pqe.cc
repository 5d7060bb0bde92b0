#include "core/path_pqe.h"

#include <utility>
#include <vector>

#include "automata/augmented_nfta.h"  // literal encoding helpers
#include "automata/multiplier_nfa.h"
#include "core/projection.h"
#include "counting/count_nfa.h"
#include "counting/exact.h"
#include "obs/trace.h"

namespace pqe {

namespace {

Status ValidatePathQuery(const ConjunctiveQuery& query) {
  if (!query.IsSelfJoinFree()) {
    return Status::NotSupported(
        "the Section 3 construction requires a self-join-free query");
  }
  if (!query.IsPathQuery()) {
    return Status::NotSupported(
        "BuildPathQueryNfa requires a path query R1(x1,x2),...,Rn(xn,xn+1)");
  }
  return Status::OK();
}

}  // namespace

Result<PathQueryNfa> BuildPathQueryNfa(const ConjunctiveQuery& query,
                                       const Database& db) {
  PQE_RETURN_IF_ERROR(ValidatePathQuery(query));
  PQE_TRACE_SPAN_VAR(span, "path.build_nfa");
  span.AttrUint("atoms", query.NumAtoms());
  span.AttrUint("facts", db.NumFacts());
  PQE_ASSIGN_OR_RETURN(ProjectedDatabase proj, ProjectDatabase(db, query));
  const Database& d = proj.db;
  const size_t n = query.NumAtoms();

  PathQueryNfa out;
  out.word_length = d.NumFacts();
  out.dropped_facts = proj.dropped_facts;
  Nfa& nfa = out.nfa;
  nfa.EnsureAlphabetSize(2 * d.NumFacts());

  // Facts of each query atom's relation, in ≺_i (= FactId) order.
  std::vector<const std::vector<FactId>*> block(n);
  for (size_t i = 0; i < n; ++i) {
    block[i] = &d.FactsOf(query.atom(i).relation);
    if (block[i]->empty()) {
      // Some relation is empty: the query is unsatisfiable on every
      // subinstance, and the automaton's language is empty.
      return out;
    }
  }

  // State [i, j, k]: in atom block i, about to emit the presence/absence of
  // the j-th R_i-fact, having committed to the k-th R_i-fact as the witness
  // for atom i. Plus a single accepting end state.
  std::vector<std::vector<StateId>> state(n);  // [i][j * c_i + k]
  for (size_t i = 0; i < n; ++i) {
    const size_t c = block[i]->size();
    state[i].resize(c * c);
    for (size_t jk = 0; jk < c * c; ++jk) state[i][jk] = nfa.AddState();
  }
  const StateId s_end = nfa.AddState();
  nfa.MarkAccepting(s_end);
  for (size_t k = 0; k < block[0]->size(); ++k) {
    nfa.MarkInitial(state[0][0 * block[0]->size() + k]);
  }

  for (size_t i = 0; i < n; ++i) {
    const auto& facts = *block[i];
    const size_t c = facts.size();
    for (size_t k = 0; k < c; ++k) {
      const Fact& witness = d.fact(facts[k]);
      for (size_t j = 0; j < c; ++j) {
        const StateId from = state[i][j * c + k];
        const SymbolId pos = PositiveLiteral(facts[j]);
        const SymbolId neg = NegativeLiteral(facts[j]);
        const bool is_witness = (j == k);
        if (j + 1 < c) {
          const StateId to = state[i][(j + 1) * c + k];
          nfa.AddTransition(from, pos, to);
          if (!is_witness) nfa.AddTransition(from, neg, to);
        } else if (i + 1 < n) {
          // Block boundary: commit to a joining witness of atom i+1.
          const auto& next_facts = *block[i + 1];
          for (size_t m = 0; m < next_facts.size(); ++m) {
            const Fact& next_witness = d.fact(next_facts[m]);
            if (next_witness.args[0] != witness.args[1]) continue;
            const StateId to = state[i + 1][0 * next_facts.size() + m];
            nfa.AddTransition(from, pos, to);
            if (!is_witness) nfa.AddTransition(from, neg, to);
          }
        } else {
          nfa.AddTransition(from, pos, s_end);
          if (!is_witness) nfa.AddTransition(from, neg, s_end);
        }
      }
    }
  }
  nfa.Trim();
  span.AttrUint("nfa_states", nfa.NumStates());
  span.AttrUint("nfa_transitions", nfa.NumTransitions());
  return out;
}

Result<PathEstimateResult> PathEstimate(const ConjunctiveQuery& query,
                                        const Database& db,
                                        const EstimatorConfig& config) {
  PQE_ASSIGN_OR_RETURN(PathQueryNfa m, BuildPathQueryNfa(query, db));
  PathEstimateResult out;
  out.nfa_states = m.nfa.NumStates();
  out.nfa_transitions = m.nfa.NumTransitions();
  out.word_length = m.word_length;
  PQE_ASSIGN_OR_RETURN(CountEstimate count,
                       CountNfaStrings(m.nfa, m.word_length, config));
  out.stats = count.stats;
  // UR(Q, D) = |L_{|D'|}(M)| · 2^{|D| − |D'|}.
  out.ur = count.value.Mul(
      ExtFloat::FromBigUint(BigUint::PowerOfTwo(m.dropped_facts)));
  return out;
}

Result<BigUint> PathUniformReliabilityExact(const ConjunctiveQuery& query,
                                            const Database& db) {
  PQE_ASSIGN_OR_RETURN(PathQueryNfa m, BuildPathQueryNfa(query, db));
  PQE_ASSIGN_OR_RETURN(BigUint count,
                       ExactCountNfaStrings(m.nfa, m.word_length));
  return count.Mul(BigUint::PowerOfTwo(m.dropped_facts));
}

Result<PathPqeSkeleton> BuildPathPqeSkeleton(const ConjunctiveQuery& query,
                                             const Database& db) {
  PQE_TRACE_SPAN_VAR(span, "path.build_skeleton");
  span.AttrUint("facts", db.NumFacts());
  PathPqeSkeleton out;
  PQE_ASSIGN_OR_RETURN(ProjectedDatabase proj, ProjectDatabase(db, query));
  out.original_fact = std::move(proj.original_fact);
  PQE_ASSIGN_OR_RETURN(out.base, BuildPathQueryNfa(query, proj.db));
  // BuildPathQueryNfa projects again internally; a no-op here, and the
  // literal symbols line up with proj.db's FactIds.
  return out;
}

Result<BoundPathNfa> BindPathPqeNfa(const PathPqeSkeleton& skeleton,
                                    const std::vector<Probability>& probs) {
  PQE_TRACE_SPAN_VAR(span, "path.bind");
  span.AttrUint("facts", probs.size());
  const Nfa& base = skeleton.base.nfa;
  std::vector<SymbolId> literals;
  literals.reserve(base.NumTransitions());
  for (const Nfa::Transition& t : base.transitions()) {
    literals.push_back(t.symbol);
  }
  PQE_ASSIGN_OR_RETURN(GadgetBindPlan plan,
                       PlanGadgetBind(probs, literals, "BindPathPqeNfa"));
  MultiplierNfa mult = MultiplierNfa::FromSkeleton(base);
  for (uint32_t s = 0; s < base.NumTransitions(); ++s) {
    const Nfa::Transition& t = base.transitions()[s];
    PQE_RETURN_IF_ERROR(mult.AddTransition(t.from, t.symbol,
                                           plan.layout->Multiplier(s, probs),
                                           t.to, plan.layout->Width(s)));
  }
  BoundPathNfa out;
  out.word_length = skeleton.base.word_length + plan.gadget_symbols;
  out.denominator = std::move(plan.denominator);
  {
    PQE_TRACE_SPAN_VAR(mult_span, "pqe.multiplier_translate");
    PQE_ASSIGN_OR_RETURN(out.nfa, mult.ToNfaStable(&plan.layout->stable));
    // No Trim: the stable layout's sink rules keep the shape
    // value-independent; counting liveness pruning discards them.
    mult_span.AttrUint("nfa_states", out.nfa.NumStates());
    mult_span.AttrUint("nfa_transitions", out.nfa.NumTransitions());
  }
  out.layout = std::move(plan.layout);
  return out;
}

Result<BoundPathNfa> RebindPathPqeNfa(const BoundPathNfa& prior,
                                      const std::vector<Probability>& old_probs,
                                      const std::vector<Probability>& new_probs,
                                      size_t* patched_slots) {
  PQE_TRACE_SPAN_VAR(span, "path.delta_rebind");
  if (patched_slots != nullptr) *patched_slots = 0;
  BoundPathNfa out;
  PQE_ASSIGN_OR_RETURN(
      const size_t patched,
      PatchGadgetDelta(prior.layout.get(), old_probs, new_probs,
                       "RebindPathPqeNfa", prior.nfa, &out.nfa));
  out.word_length = prior.word_length;
  out.denominator = prior.denominator;  // dens unchanged ⇒ d unchanged
  out.layout = prior.layout;
  if (patched_slots != nullptr) *patched_slots = patched;
  span.AttrUint("patched_slots", patched);
  return out;
}

Result<PathPqeResult> EstimatePathSkeleton(const PathPqeSkeleton& skeleton,
                                           const ProbabilisticDatabase& pdb,
                                           const EstimatorConfig& config) {
  PQE_ASSIGN_OR_RETURN(
      std::vector<Probability> probs,
      ProjectedFactProbabilities(skeleton.original_fact, pdb));
  PQE_ASSIGN_OR_RETURN(BoundPathNfa m, BindPathPqeNfa(skeleton, probs));
  PathPqeResult out;
  out.word_length = m.word_length;
  out.nfa_states = m.nfa.NumStates();
  out.nfa_transitions = m.nfa.NumTransitions();
  PQE_ASSIGN_OR_RETURN(CountEstimate count,
                       CountNfaStrings(m.nfa, m.word_length, config));
  out.stats = count.stats;
  out.string_count = count.value;
  out.log2_probability = Log2Probability(count.value, m.denominator);
  out.probability = ClampProbability(out.log2_probability);
  return out;
}

Result<BigRational> ExactPathSkeleton(const PathPqeSkeleton& skeleton,
                                      const ProbabilisticDatabase& pdb) {
  PQE_ASSIGN_OR_RETURN(
      std::vector<Probability> probs,
      ProjectedFactProbabilities(skeleton.original_fact, pdb));
  PQE_ASSIGN_OR_RETURN(BoundPathNfa m, BindPathPqeNfa(skeleton, probs));
  PQE_ASSIGN_OR_RETURN(BigUint count,
                       ExactCountNfaStrings(m.nfa, m.word_length));
  return BigRational(std::move(count), m.denominator);
}

Result<PathPqeResult> PathPqeEstimate(const ConjunctiveQuery& query,
                                      const ProbabilisticDatabase& pdb,
                                      const EstimatorConfig& config) {
  PQE_TRACE_SPAN_VAR(span, "path.estimate");
  // Cold estimate = skeleton + shared tail, so a warm rebind of a cached
  // skeleton (src/serve/) is bit-identical to this path.
  PQE_ASSIGN_OR_RETURN(PathPqeSkeleton skeleton,
                       BuildPathPqeSkeleton(query, pdb.database()));
  return EstimatePathSkeleton(skeleton, pdb, config);
}

Result<BigRational> PathPqeExact(const ConjunctiveQuery& query,
                                 const ProbabilisticDatabase& pdb) {
  PQE_ASSIGN_OR_RETURN(PathPqeSkeleton skeleton,
                       BuildPathPqeSkeleton(query, pdb.database()));
  return ExactPathSkeleton(skeleton, pdb);
}

}  // namespace pqe
