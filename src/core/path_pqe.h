#ifndef PQE_CORE_PATH_PQE_H_
#define PQE_CORE_PATH_PQE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "automata/nfa.h"
#include "core/gadget_bind.h"
#include "counting/config.h"
#include "cq/query.h"
#include "pdb/database.h"
#include "pdb/probabilistic_database.h"
#include "util/bigint.h"
#include "util/extfloat.h"
#include "util/result.h"

namespace pqe {

/// The string automaton M of Section 3, together with the bookkeeping needed
/// to interpret counts over it. Strings of length `word_length` accepted by
/// `nfa` correspond one-to-one to subinstances of the projected database D'
/// that satisfy the path query; symbols are fact literals
/// (PositiveLiteral/NegativeLiteral over projected FactIds).
struct PathQueryNfa {
  Nfa nfa;
  size_t word_length = 0;     // |D'|
  size_t dropped_facts = 0;   // |D| − |D'| (facts over non-query relations)
};

/// Builds the Section 3 NFA for a self-join-free path query over a database
/// whose query relations are binary. Fails with NotSupported for non-path or
/// non-self-join-free queries.
Result<PathQueryNfa> BuildPathQueryNfa(const ConjunctiveQuery& query,
                                       const Database& db);

/// PathEstimate (Theorem 2): (1±ε)-approximates the uniform reliability
/// UR(Q, D) of a self-join-free path query by counting accepted strings of
/// the Section 3 automaton with CountNFA and rescaling by 2^{|D|−|D'|}.
struct PathEstimateResult {
  ExtFloat ur;                // the UR(Q, D) estimate
  size_t nfa_states = 0;
  size_t nfa_transitions = 0;
  size_t word_length = 0;
  CountStats stats;
};
Result<PathEstimateResult> PathEstimate(const ConjunctiveQuery& query,
                                        const Database& db,
                                        const EstimatorConfig& config);

/// Exact companion (test oracle): counts the accepted strings exactly by
/// on-the-fly determinization. Exponential worst case.
Result<BigUint> PathUniformReliabilityExact(const ConjunctiveQuery& query,
                                            const Database& db);

/// Theorem 1 specialized to path queries, entirely in *string* automata:
/// the Section 3 NFA plus string-side multiplier gadgets (the paper's
/// footnote 2 observes the Section 5.1 gadget is a degenerate path
/// automaton). Often far cheaper than the generic tree pipeline on path
/// queries; `bench_ablation`/tests compare the two.
struct PathPqeResult {
  double probability = 0.0;     // projected into [0, 1]
  double log2_probability = 0.0;
  ExtFloat string_count;        // |L_k(M')| estimate
  size_t word_length = 0;       // k = |D'| + Σ width_i
  size_t nfa_states = 0;
  size_t nfa_transitions = 0;
  CountStats stats;
};
Result<PathPqeResult> PathPqeEstimate(const ConjunctiveQuery& query,
                                      const ProbabilisticDatabase& pdb,
                                      const EstimatorConfig& config);

/// Exact companion for PathPqeEstimate (test oracle).
Result<BigRational> PathPqeExact(const ConjunctiveQuery& query,
                                 const ProbabilisticDatabase& pdb);

/// The probability-independent half of the string specialization: the
/// Section 3 NFA, built from the query and the plain database only. The
/// string-automaton analogue of PqeSkeleton (core/pqe.h); compiled once per
/// (query, database) pair and rebound per probability labelling.
struct PathPqeSkeleton {
  PathQueryNfa base;                  // Section 3 NFA over the projected db
  std::vector<FactId> original_fact;  // projected FactId -> original FactId
};

/// Builds the skeleton. Fails with NotSupported for non-path or
/// non-self-join-free queries (same contract as BuildPathQueryNfa).
Result<PathPqeSkeleton> BuildPathPqeSkeleton(const ConjunctiveQuery& query,
                                             const Database& db);

/// The probability-dependent tail of PathPqeEstimate, factored out so every
/// producer of a PathPqeSkeleton — BuildPathPqeSkeleton for linear path
/// queries, the RPQ product construction (src/rpq/product.h) for regular
/// path queries — shares one bind + count + arithmetic pipeline: looks up
/// the projected fact probabilities in `pdb`, attaches the §5.1 gadgets,
/// counts accepted strings, and converts the count to a probability.
/// PathPqeEstimate(q, pdb, c) ≡ EstimatePathSkeleton(BuildPathPqeSkeleton(q,
/// pdb.database()), pdb, c), bit for bit.
Result<PathPqeResult> EstimatePathSkeleton(const PathPqeSkeleton& skeleton,
                                           const ProbabilisticDatabase& pdb,
                                           const EstimatorConfig& config);

/// Exact companion of EstimatePathSkeleton (test oracle).
Result<BigRational> ExactPathSkeleton(const PathPqeSkeleton& skeleton,
                                      const ProbabilisticDatabase& pdb);

/// The weighted path automaton M' of the Theorem 1 string specialization,
/// plus the common denominator d and stratum length k; bound through the
/// same gadget layer as the tree route (core/gadget_bind.h). Value-stable
/// slotted layout, untrimmed (dead branches route into the layout's sink;
/// counting liveness pruning discards them).
struct BoundPathNfa {
  Nfa nfa;
  size_t word_length = 0;  // k = |D'| + Σ width_i
  BigUint denominator;     // d = Π d_i over projected facts
  /// Fact → gadget-slot provenance enabling RebindPathPqeNfa.
  std::shared_ptr<const PqeBindLayout> layout;
};

/// Attaches string multiplier gadgets for `probs` (one Probability per
/// *projected* fact, in projected FactId order) to the skeleton.
/// Rebinding a cached skeleton is bit-identical to the cold path inside
/// PathPqeEstimate at equal inputs.
Result<BoundPathNfa> BindPathPqeNfa(const PathPqeSkeleton& skeleton,
                                    const std::vector<Probability>& probs);

/// Delta rebind for the path specialization: clones `prior` and patches the
/// gadget slots of facts whose probability changed between `old_probs` and
/// `new_probs`. Bit-identical to BindPathPqeNfa(skeleton, new_probs); fails
/// with InvalidArgument on a changed denominator (shape change — full rebind
/// required). See RebindPqeAutomaton (core/pqe.h) for the contract.
Result<BoundPathNfa> RebindPathPqeNfa(const BoundPathNfa& prior,
                                      const std::vector<Probability>& old_probs,
                                      const std::vector<Probability>& new_probs,
                                      size_t* patched_slots = nullptr);

}  // namespace pqe

#endif  // PQE_CORE_PATH_PQE_H_
