#include "eval/ucq_eval.h"

#include <algorithm>
#include <set>

#include "eval/eval.h"
#include "lineage/compiled_wmc.h"

namespace pqe {

Result<bool> SatisfiesUnion(const Database& db, const UnionQuery& query) {
  for (const ConjunctiveQuery& q : query.disjuncts()) {
    PQE_ASSIGN_OR_RETURN(bool sat, Satisfies(db, q));
    if (sat) return true;
  }
  return false;
}

Result<BigRational> ExactUnionProbabilityByEnumeration(
    const ProbabilisticDatabase& pdb, const UnionQuery& query,
    size_t max_facts) {
  const Database& db = pdb.database();
  const size_t n = db.NumFacts();
  if (n > max_facts) {
    return Status::ResourceExhausted(
        "enumeration oracle limited to " + std::to_string(max_facts) +
        " facts, database has " + std::to_string(n));
  }
  BigUint numerator_sum;
  std::vector<bool> present(n, false);
  const uint64_t worlds = 1ULL << n;
  for (uint64_t mask = 0; mask < worlds; ++mask) {
    for (size_t i = 0; i < n; ++i) present[i] = (mask >> i) & 1;
    bool sat = false;
    for (const ConjunctiveQuery& q : query.disjuncts()) {
      PQE_ASSIGN_OR_RETURN(sat, SatisfiesSubinstance(db, q, present));
      if (sat) break;
    }
    if (!sat) continue;
    BigUint world_num(1);
    for (size_t i = 0; i < n; ++i) {
      const Probability p = pdb.probability(static_cast<FactId>(i));
      world_num = world_num.MulU64(present[i] ? p.num : p.den - p.num);
    }
    numerator_sum = numerator_sum.Add(world_num);
  }
  return BigRational(std::move(numerator_sum), pdb.CommonDenominator());
}

Result<DnfLineage> BuildUnionLineage(const UnionQuery& query,
                                     const Database& db,
                                     size_t max_clauses) {
  DnfLineage out;
  out.num_facts = db.NumFacts();
  std::set<std::vector<FactId>> seen;
  for (const ConjunctiveQuery& q : query.disjuncts()) {
    PQE_ASSIGN_OR_RETURN(DnfLineage part, BuildLineage(q, db, max_clauses));
    for (auto& clause : part.clauses) {
      if (seen.insert(clause).second) {
        if (seen.size() > max_clauses) {
          return Status::ResourceExhausted("union lineage exceeds clause cap");
        }
        out.clauses.push_back(std::move(clause));
      }
    }
  }
  return out;
}

Result<BigRational> ExactUnionProbability(const UnionQuery& query,
                                          const ProbabilisticDatabase& pdb) {
  PQE_ASSIGN_OR_RETURN(DnfLineage lineage,
                       BuildUnionLineage(query, pdb.database()));
  PQE_ASSIGN_OR_RETURN(CompiledWmcResult result,
                       ExactDnfProbabilityDecomposed(lineage, pdb));
  return result.probability;
}

}  // namespace pqe
