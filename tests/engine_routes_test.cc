// The engine's method routing, per request target: which (target, method)
// pairs answer, and what each answered pair returns.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "cq/builders.h"
#include "cq/ucq.h"
#include "rpq/regex.h"
#include "workload/generators.h"

namespace pqe {
namespace {

// One small fixed instance per request shape. Every database is small
// enough for enumeration under the default threshold, so a row's
// enumeration_threshold alone decides which side of it kAuto sees.
struct Instances {
  QueryInstance path3 = MakePathQuery(3).MoveValue();
  ProbabilisticDatabase path3_pdb = PathPdb(path3, /*seed=*/7);
  QueryInstance star3 = MakeStarQuery(3).MoveValue();
  ProbabilisticDatabase star3_pdb = AttachProbabilities(
      MakeStarDatabase(star3, StarDataOptions{}).MoveValue(),
      ProbabilityModel{});
  rpq::RpqQuery rpq = rpq::RpqQuery::Parse("a/(a|b)*/a").MoveValue();
  ProbabilisticDatabase kg_pdb = Kg();
  // A self-loop under a+: no scan order exists, so the string FPRAS
  // reports kNotSupported and kAuto falls back to lineage.
  rpq::RpqQuery rpq_cyclic = rpq::RpqQuery::Parse("a+").MoveValue();
  ProbabilisticDatabase cyclic_pdb = Cyclic();
  Schema union_schema = UnionSchema();
  UnionQuery union_query =
      ParseUnionQuery(union_schema, "E(x,y), F(y,z) | F(a,a)").MoveValue();
  ProbabilisticDatabase union_pdb = UnionPdb(union_schema);
  QueryInstance path2 = MakePathQuery(2).MoveValue();
  ProbabilisticDatabase path2_pdb = PathPdb(path2, /*seed=*/6);

  static ProbabilisticDatabase PathPdb(const QueryInstance& qi,
                                       uint64_t seed) {
    LayeredGraphOptions opt;
    opt.width = 2;
    opt.density = 0.8;
    opt.seed = seed;
    ProbabilityModel pm;
    pm.seed = seed + 1;
    return AttachProbabilities(MakeLayeredPathDatabase(qi, opt).MoveValue(),
                               pm);
  }
  static ProbabilisticDatabase Kg() {
    KgReachabilityOptions kopt;
    kopt.layers = 3;
    kopt.width = 2;
    kopt.density = 0.6;
    kopt.seed = 5;
    ProbabilityModel pm;
    pm.max_denominator = 8;
    pm.seed = 6;
    return AttachProbabilities(MakeKgReachabilityDatabase(kopt).MoveValue(),
                               pm);
  }
  static ProbabilisticDatabase Cyclic() {
    Schema schema;
    EXPECT_TRUE(schema.AddRelation("a", 2).ok());
    Database db(schema);
    EXPECT_TRUE(db.AddFactByName("a", {"v", "v"}).ok());
    EXPECT_TRUE(db.AddFactByName("a", {"v", "w"}).ok());
    EXPECT_TRUE(db.AddFactByName("a", {"w", "v"}).ok());
    return ProbabilisticDatabase::Make(
               std::move(db), std::vector<Probability>(3, Probability::Half()))
        .MoveValue();
  }
  static Schema UnionSchema() {
    Schema schema;
    EXPECT_TRUE(schema.AddRelation("E", 2).ok());
    EXPECT_TRUE(schema.AddRelation("F", 2).ok());
    return schema;
  }
  static ProbabilisticDatabase UnionPdb(const Schema& schema) {
    RandomDatabaseOptions ropt;
    ropt.domain_size = 3;
    ropt.facts_per_relation = 5;
    ropt.seed = 7;
    ProbabilityModel pm;
    pm.seed = 8;
    return AttachProbabilities(MakeRandomDatabase(schema, ropt).MoveValue(),
                               pm);
  }

  EvalRequest Request(const std::string& name) const {
    if (name == "path3") return EvalRequest::ForQuery(path3.query, path3_pdb);
    if (name == "star3") return EvalRequest::ForQuery(star3.query, star3_pdb);
    if (name == "rpq") return EvalRequest::ForRpq(rpq, kg_pdb);
    if (name == "rpq_cyclic") {
      return EvalRequest::ForRpq(rpq_cyclic, cyclic_pdb);
    }
    if (name == "union") return EvalRequest::ForUnion(union_query, union_pdb);
    EXPECT_EQ(name, "ur");
    return EvalRequest::ForUniformReliability(path2.query,
                                              path2_pdb.database());
  }
};

const Instances& TheInstances() {
  static const Instances* instances = new Instances();
  return *instances;
}

EvalResponse Evaluate(const std::string& instance, PqeMethod method,
                      size_t enumeration_threshold) {
  auto opts = PqeEngine::Options::Builder()
                  .Method(method)
                  .Epsilon(0.3)
                  .Seed(0xfeed)
                  .PoolSize(48)
                  .Repetitions(1)
                  .NumThreads(1)
                  .EnumerationThreshold(enumeration_threshold)
                  .Build();
  EXPECT_TRUE(opts.ok()) << opts.status().ToString();
  return PqeEngine(*opts).EvaluateRequest(TheInstances().Request(instance));
}

std::string ProbabilityBits(double p) {
  uint64_t bits = 0;
  std::memcpy(&bits, &p, sizeof(bits));
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

// A forced method either runs, and the answer says so, or the request is
// refused with kNotSupported. It never answers by another method.
TEST(EngineTest, ForcedMethodIsHonouredOnEveryTarget) {
  for (const char* instance : {"path3", "rpq", "union", "ur"}) {
    for (PqeMethod method : kAllPqeMethods) {
      const std::string what =
          std::string(instance) + " × " + PqeMethodToString(method);
      const EvalResponse resp = Evaluate(instance, method, 16);
      if (!resp.status.ok()) {
        EXPECT_EQ(resp.status.code(), StatusCode::kNotSupported)
            << what << ": " << resp.status.ToString();
        // Every target answers kAuto and exact enumeration.
        EXPECT_NE(method, PqeMethod::kAuto) << what;
        EXPECT_NE(method, PqeMethod::kEnumeration) << what;
        continue;
      }
      if (method == PqeMethod::kAuto) {
        EXPECT_NE(resp.answer.method_used, PqeMethod::kAuto) << what;
      } else {
        EXPECT_EQ(resp.answer.method_used, method)
            << what << " answered by "
            << PqeMethodToString(resp.answer.method_used);
      }
    }
  }
}

// --- Routes pinned across commits -------------------------------------------
//
// Each row is one (instance, method, enumeration_threshold) request and the
// (method_used, is_exact, probability bits) it returned when recorded. A
// row may only change together with a deliberate, documented change of
// routing, encoding or sampler.

struct RouteRow {
  const char* instance;
  PqeMethod method;
  size_t enumeration_threshold;
  PqeMethod method_used;
  bool is_exact;
  const char* probability_bits;  // hex of the double's bit pattern
};

constexpr RouteRow kRouteRows[] = {
    {"path3", PqeMethod::kAuto, 16, PqeMethod::kEnumeration, true,
     "3fc6666666666666"},
    {"path3", PqeMethod::kAuto, 0, PqeMethod::kFpras, false,
     "3fcccaf47ae147a3"},
    {"path3", PqeMethod::kFpras, 16, PqeMethod::kFpras, false,
     "3fcccaf47ae147a3"},
    {"path3", PqeMethod::kEnumeration, 16, PqeMethod::kEnumeration, true,
     "3fc6666666666666"},
    {"path3", PqeMethod::kKarpLubyLineage, 16, PqeMethod::kKarpLubyLineage,
     false, "3fc54560fe0b4688"},
    {"path3", PqeMethod::kExactLineage, 16, PqeMethod::kExactLineage, true,
     "3fc6666666666666"},
    {"path3", PqeMethod::kMonteCarlo, 16, PqeMethod::kMonteCarlo, false,
     "3fc6e7d566cf41f2"},
    {"star3", PqeMethod::kAuto, 16, PqeMethod::kSafePlan, true,
     "3fed49ebad8091a9"},
    {"star3", PqeMethod::kSafePlan, 16, PqeMethod::kSafePlan, true,
     "3fed49ebad8091a9"},
    {"rpq", PqeMethod::kAuto, 16, PqeMethod::kEnumeration, true,
     "3fe76e9fdfc08b65"},
    {"rpq", PqeMethod::kAuto, 0, PqeMethod::kFpras, false, "3fe1da924924924e"},
    {"rpq", PqeMethod::kFpras, 16, PqeMethod::kFpras, false,
     "3fe1da924924924e"},
    {"rpq", PqeMethod::kEnumeration, 16, PqeMethod::kEnumeration, true,
     "3fe76e9fdfc08b65"},
    {"rpq", PqeMethod::kExactLineage, 16, PqeMethod::kExactLineage, true,
     "3fe76e9fdfc08b65"},
    {"rpq", PqeMethod::kKarpLubyLineage, 16, PqeMethod::kKarpLubyLineage, false,
     "3fe8d81354560fe1"},
    {"rpq_cyclic", PqeMethod::kAuto, 0, PqeMethod::kExactLineage, true,
     "3fec000000000000"},
    {"union", PqeMethod::kAuto, 16, PqeMethod::kEnumeration, true,
     "3fe9666666666666"},
    {"union", PqeMethod::kAuto, 0, PqeMethod::kExactLineage, true,
     "3fe9666666666666"},
    {"ur", PqeMethod::kAuto, 16, PqeMethod::kEnumeration, true,
     "4043800000000000"},
    {"ur", PqeMethod::kAuto, 0, PqeMethod::kFpras, false, "4042fc0000000000"},
};

TEST(EngineRouteTest, RoutesMatchTheTable) {
  for (const RouteRow& row : kRouteRows) {
    const std::string what = std::string(row.instance) + " × " +
                             PqeMethodToString(row.method) + " @ " +
                             std::to_string(row.enumeration_threshold);
    const EvalResponse resp =
        Evaluate(row.instance, row.method, row.enumeration_threshold);
    ASSERT_TRUE(resp.status.ok()) << what << ": " << resp.status.ToString();
    const PqeAnswer& a = resp.answer;
    EXPECT_EQ(a.method_used, row.method_used)
        << what << ": " << PqeMethodToString(a.method_used);
    EXPECT_EQ(a.is_exact, row.is_exact) << what;
    EXPECT_EQ(ProbabilityBits(a.probability), row.probability_bits)
        << what << ": p=" << a.probability;
  }
}

}  // namespace
}  // namespace pqe
