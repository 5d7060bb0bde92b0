#ifndef PQE_EVAL_UCQ_EVAL_H_
#define PQE_EVAL_UCQ_EVAL_H_

#include "cq/ucq.h"
#include "lineage/lineage.h"
#include "pdb/probabilistic_database.h"
#include "util/bigint.h"
#include "util/result.h"

namespace pqe {

/// D ⊨ Q₁ ∨ ... ∨ Q_m.
Result<bool> SatisfiesUnion(const Database& db, const UnionQuery& query);

/// Exact Pr_H(∨ᵢ Qᵢ) by possible-world enumeration (2^|D|; tiny instances).
Result<BigRational> ExactUnionProbabilityByEnumeration(
    const ProbabilisticDatabase& pdb, const UnionQuery& query,
    size_t max_facts = 25);

/// The union's DNF lineage: the union of the disjuncts' lineages (clauses
/// deduplicated). Everything downstream of a DNF — Karp–Luby, Shannon
/// expansion, the decomposed model counter — works on UCQs through this.
Result<DnfLineage> BuildUnionLineage(const UnionQuery& query,
                                     const Database& db,
                                     size_t max_clauses = 5'000'000);

/// Exact Pr_H(∨ᵢ Qᵢ) via the union lineage + decomposed model counting.
Result<BigRational> ExactUnionProbability(const UnionQuery& query,
                                          const ProbabilisticDatabase& pdb);

}  // namespace pqe

#endif  // PQE_EVAL_UCQ_EVAL_H_
