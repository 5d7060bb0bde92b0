#include "rpq/eval.h"

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/str_cat.h"

namespace pqe {
namespace rpq {

std::optional<ConjunctiveQuery> LowerToPathQuery(const RpqQuery& query,
                                                 const Schema& schema) {
  std::vector<std::string> labels;
  if (!query.IsLinearChain(&labels) || labels.empty()) return std::nullopt;
  std::unordered_set<std::string> distinct(labels.begin(), labels.end());
  if (distinct.size() != labels.size()) return std::nullopt;  // self-join
  for (const std::string& label : labels) {
    if (!schema.HasRelation(label)) return std::nullopt;
    const auto rel = schema.FindRelation(label);
    if (!rel.ok() || schema.Arity(rel.value()) != 2) return std::nullopt;
  }
  ConjunctiveQuery::Builder builder(&schema);
  for (size_t i = 0; i < labels.size(); ++i) {
    const Status s = builder.AddAtom(
        labels[i],
        {StrCat("x", i + 1), StrCat("x", i + 2)});
    if (!s.ok()) return std::nullopt;
  }
  auto built = builder.Build();
  if (!built.ok()) return std::nullopt;
  return std::move(built).value();
}

Result<PathPqeSkeleton> CompileRpqSkeleton(const RpqQuery& query,
                                           const Database& db,
                                           RpqCompileStats* stats) {
  if (stats != nullptr) *stats = RpqCompileStats{};
  if (std::optional<ConjunctiveQuery> lowered =
          LowerToPathQuery(query, db.schema())) {
    PQE_ASSIGN_OR_RETURN(PathPqeSkeleton skeleton,
                         BuildPathPqeSkeleton(*lowered, db));
    if (stats != nullptr) stats->query_states = lowered->NumAtoms() + 1;
    return skeleton;
  }
  return BuildRpqSkeleton(query, db, stats);
}

Result<PathPqeResult> RpqEstimate(const RpqQuery& query,
                                  const ProbabilisticDatabase& pdb,
                                  const EstimatorConfig& config) {
  // Lowered regexes reuse PathPqeEstimate itself (not just its tail) so the
  // trace spans — and the bits — match a directly-issued path query.
  if (std::optional<ConjunctiveQuery> lowered =
          LowerToPathQuery(query, pdb.database().schema())) {
    return PathPqeEstimate(*lowered, pdb, config);
  }
  PQE_TRACE_SPAN_VAR(span, "rpq.estimate");
  span.AttrUint("facts", pdb.NumFacts());
  RpqCompileStats stats;
  PQE_ASSIGN_OR_RETURN(PathPqeSkeleton skeleton,
                       BuildRpqSkeleton(query, pdb.database(), &stats));
  span.AttrUint("query_states", stats.query_states);
  span.AttrUint("useful_edges", stats.useful_edges);
  span.AttrUint("scan_constraints", stats.scan_constraints);
  return EstimatePathSkeleton(skeleton, pdb, config);
}

Result<BigRational> RpqExact(const RpqQuery& query,
                             const ProbabilisticDatabase& pdb) {
  if (std::optional<ConjunctiveQuery> lowered =
          LowerToPathQuery(query, pdb.database().schema())) {
    return PathPqeExact(*lowered, pdb);
  }
  PQE_ASSIGN_OR_RETURN(PathPqeSkeleton skeleton,
                       BuildRpqSkeleton(query, pdb.database(), nullptr));
  return ExactPathSkeleton(skeleton, pdb);
}

}  // namespace rpq
}  // namespace pqe
