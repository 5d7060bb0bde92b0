// Random self-join-free query instances shared by the differential fuzz
// suite and the FPRAS coverage harness: a random connected query (spanning
// tree over variables, optional unary label, optional cycle-closing edge)
// over a small random database with random rational labels. Everything is
// a function of the seed.

#ifndef PQE_TESTS_RANDOM_INSTANCE_H_
#define PQE_TESTS_RANDOM_INSTANCE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cq/query.h"
#include "pdb/probabilistic_database.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/str_cat.h"
#include "workload/generators.h"

namespace pqe {
namespace test {

struct RandomInstance {
  Schema schema;
  ConjunctiveQuery query;
  ProbabilisticDatabase pdb;
};

inline Result<RandomInstance> MakeRandomInstance(uint64_t seed) {
  Rng rng(seed);
  // Random connected self-join-free query: a spanning tree over variables
  // plus optional unary labels and one optional cycle-closing edge.
  const uint32_t num_vars = 2 + static_cast<uint32_t>(rng.NextBounded(4));
  Schema schema;
  std::vector<std::pair<std::string, std::vector<std::string>>> atoms;
  uint32_t rel = 0;
  auto var = [](uint32_t v) { return StrCat("v", v); };
  for (uint32_t v = 1; v < num_vars; ++v) {
    const uint32_t parent = static_cast<uint32_t>(rng.NextBounded(v));
    atoms.push_back({StrCat("E", rel++), {var(parent), var(v)}});
  }
  if (rng.NextBernoulli(0.4)) {
    atoms.push_back({StrCat("L", rel++),
                     {var(static_cast<uint32_t>(rng.NextBounded(num_vars)))}});
  }
  if (num_vars >= 3 && rng.NextBernoulli(0.3)) {
    // Close a cycle (may push the width to 2).
    atoms.push_back({StrCat("C", rel++),
                     {var(0), var(num_vars - 1)}});
  }
  for (const auto& [name, args] : atoms) {
    PQE_RETURN_IF_ERROR(
        schema.AddRelation(name, static_cast<uint32_t>(args.size()))
            .status());
  }
  ConjunctiveQuery::Builder builder(&schema);
  for (const auto& [name, args] : atoms) {
    PQE_RETURN_IF_ERROR(builder.AddAtom(name, args));
  }
  PQE_ASSIGN_OR_RETURN(ConjunctiveQuery query, builder.Build());

  RandomDatabaseOptions ropt;
  ropt.domain_size = 2 + static_cast<uint32_t>(rng.NextBounded(2));
  ropt.facts_per_relation = 2 + static_cast<uint32_t>(rng.NextBounded(2));
  ropt.seed = seed * 31 + 7;
  PQE_ASSIGN_OR_RETURN(Database db, MakeRandomDatabase(schema, ropt));
  ProbabilityModel pm;
  pm.kind = rng.NextBernoulli(0.5) ? ProbabilityModel::Kind::kRandomRational
                                   : ProbabilityModel::Kind::kSkewed;
  pm.max_denominator = 2 + rng.NextBounded(14);
  pm.seed = seed * 13 + 3;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
  return RandomInstance{std::move(schema), std::move(query), std::move(pdb)};
}

}  // namespace test
}  // namespace pqe

#endif  // PQE_TESTS_RANDOM_INSTANCE_H_
