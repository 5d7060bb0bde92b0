// Tests for the PqeEngine facade: method auto-selection, forcing, and the
// agreement of every strategy on shared instances.

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>

#include "core/engine.h"
#include "cq/parser.h"
#include "cq/ucq.h"
#include "eval/ucq_eval.h"
#include "cq/builders.h"
#include "eval/eval.h"
#include "obs/trace.h"
#include "workload/generators.h"

namespace pqe {
namespace {

// Everything goes through the single EvaluateRequest entry point; these
// helpers unwrap the response envelope for assertion-dense test bodies.
Result<PqeAnswer> EvalQuery(const PqeEngine& engine,
                            const ConjunctiveQuery& query,
                            const ProbabilisticDatabase& pdb) {
  EvalResponse resp =
      engine.EvaluateRequest(EvalRequest::ForQuery(query, pdb));
  if (!resp.status.ok()) return resp.status;
  return std::move(resp.answer);
}

Result<PqeAnswer> EvalUnion(const PqeEngine& engine, const UnionQuery& query,
                            const ProbabilisticDatabase& pdb) {
  EvalResponse resp =
      engine.EvaluateRequest(EvalRequest::ForUnion(query, pdb));
  if (!resp.status.ok()) return resp.status;
  return std::move(resp.answer);
}

Result<double> EvalUr(const PqeEngine& engine, const ConjunctiveQuery& query,
                      const Database& db) {
  EvalResponse resp =
      engine.EvaluateRequest(EvalRequest::ForUniformReliability(query, db));
  if (!resp.status.ok()) return resp.status;
  return resp.answer.probability;
}

ProbabilisticDatabase SmallPathPdb(const QueryInstance& qi, uint64_t seed) {
  LayeredGraphOptions opt;
  opt.width = 2;
  opt.density = 0.8;
  opt.seed = seed;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  ProbabilityModel pm;
  pm.seed = seed + 1;
  return AttachProbabilities(std::move(db), pm);
}

TEST(EngineTest, AutoPicksSafePlanForHierarchical) {
  auto star = MakeStarQuery(3).MoveValue();
  StarDataOptions sopt;
  auto db = MakeStarDatabase(star, sopt).MoveValue();
  ProbabilityModel pm;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
  PqeEngine engine;
  auto answer = EvalQuery(engine, star.query, pdb).MoveValue();
  EXPECT_EQ(answer.method_used, PqeMethod::kSafePlan);
  EXPECT_TRUE(answer.is_exact);
}

TEST(EngineTest, AutoPicksEnumerationForTinyUnsafe) {
  auto qi = MakePathQuery(3).MoveValue();
  ProbabilisticDatabase pdb = SmallPathPdb(qi, 3);
  ASSERT_LE(pdb.NumFacts(), 16u);
  PqeEngine engine;
  auto answer = EvalQuery(engine, qi.query, pdb).MoveValue();
  EXPECT_EQ(answer.method_used, PqeMethod::kEnumeration);
  EXPECT_TRUE(answer.is_exact);
}

TEST(EngineTest, AutoPicksFprasForLargerUnsafe) {
  auto qi = MakePathQuery(3).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 3;
  opt.density = 0.9;
  opt.seed = 4;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  ProbabilityModel pm;
  pm.kind = ProbabilityModel::Kind::kUniformHalf;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
  ASSERT_GT(pdb.NumFacts(), 16u);
  PqeEngine::Options opts;
  opts.epsilon = 0.25;
  PqeEngine engine(opts);
  auto answer = EvalQuery(engine, qi.query, pdb);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->method_used, PqeMethod::kFpras);
  EXPECT_FALSE(answer->is_exact);
  EXPECT_FALSE(RenderDiagnostics(*answer).empty());
}

TEST(EngineTest, AllMethodsAgreeOnSharedInstance) {
  auto qi = MakePathQuery(3).MoveValue();
  ProbabilisticDatabase pdb = SmallPathPdb(qi, 7);
  auto truth =
      ExactProbabilityByEnumeration(pdb, qi.query).MoveValue().ToDouble();
  ASSERT_GT(truth, 0.0);
  for (PqeMethod method :
       {PqeMethod::kEnumeration, PqeMethod::kFpras,
        PqeMethod::kKarpLubyLineage, PqeMethod::kExactLineage,
        PqeMethod::kMonteCarlo}) {
    PqeEngine::Options opts;
    opts.method = method;
    opts.epsilon = 0.1;
    opts.seed = 99;
    PqeEngine engine(opts);
    auto answer = EvalQuery(engine, qi.query, pdb);
    ASSERT_TRUE(answer.ok())
        << PqeMethodToString(method) << ": " << answer.status().ToString();
    EXPECT_NEAR(answer->probability / truth, 1.0, 0.3)
        << PqeMethodToString(method);
  }
}

TEST(EngineTest, SafePlanForcedOnUnsafeFails) {
  auto qi = MakePathQuery(3).MoveValue();
  ProbabilisticDatabase pdb = SmallPathPdb(qi, 5);
  PqeEngine::Options opts;
  opts.method = PqeMethod::kSafePlan;
  PqeEngine engine(opts);
  EXPECT_EQ(EvalQuery(engine, qi.query, pdb).status().code(),
            StatusCode::kNotSupported);
}

TEST(EngineTest, UniformReliabilityHelper) {
  auto qi = MakePathQuery(2).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 2;
  opt.density = 0.9;
  opt.seed = 6;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  auto truth = UniformReliabilityByEnumeration(db, qi.query).MoveValue();
  PqeEngine engine;
  auto ur = EvalUr(engine, qi.query, db);
  ASSERT_TRUE(ur.ok());
  EXPECT_DOUBLE_EQ(*ur, truth.ToDouble());
}

TEST(EngineTest, UniformReliabilityRequestCarriesTrace) {
  // kUniformReliability runs through the same request envelope as every
  // other target: collect_trace returns a trace whose root names the
  // request.
  auto qi = MakePathQuery(2).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 2;
  opt.density = 0.9;
  opt.seed = 6;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  PqeEngine engine;
  EvalRequest r = EvalRequest::ForUniformReliability(qi.query, db);
  r.request_id = 42;
  r.collect_trace = true;
  const EvalResponse resp = engine.EvaluateRequest(r);
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  ASSERT_NE(resp.answer.trace, nullptr);
  if (!obs::TracingCompiledIn()) return;
  const obs::TraceAttr* id = resp.answer.trace->root.FindAttr("request_id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->u, 42u);
}

TEST(EngineTest, EvaluateUnionAgreesWithEnumeration) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("E", 2).ok());
  ASSERT_TRUE(schema.AddRelation("F", 1).ok());
  auto u = ParseUnionQuery(schema, "E(x,y) | F(z)").MoveValue();
  Database db(schema);
  ASSERT_TRUE(db.AddFactByName("E", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("F", {"c"}).ok());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  PqeEngine engine;
  auto answer = EvalUnion(engine, u, pdb);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->is_exact);
  EXPECT_NEAR(answer->probability, 0.75, 1e-12);  // 1 - (1/2)(1/2)
}

TEST(EngineTest, EvaluateUnionLargerInstanceUsesLineage) {
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("E", 2).ok());
  ASSERT_TRUE(schema.AddRelation("F", 2).ok());
  auto u = ParseUnionQuery(schema, "E(x,y), F(y,z) | F(a,a)").MoveValue();
  RandomDatabaseOptions ropt;
  ropt.domain_size = 4;
  ropt.facts_per_relation = 14;
  ropt.seed = 7;
  auto db = MakeRandomDatabase(schema, ropt).MoveValue();
  ASSERT_GT(db.NumFacts(), 16u);
  ProbabilityModel pm;
  pm.seed = 8;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
  PqeEngine engine;
  auto answer = EvalUnion(engine, u, pdb);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->method_used, PqeMethod::kExactLineage);
  // Cross-check against the standalone exact union evaluator.
  auto truth = ExactUnionProbability(u, pdb).MoveValue();
  EXPECT_NEAR(answer->probability, truth.ToDouble(), 1e-9);
}

TEST(EngineTest, MethodNamesAreStable) {
  EXPECT_STREQ(PqeMethodToString(PqeMethod::kFpras), "fpras");
  EXPECT_STREQ(PqeMethodToString(PqeMethod::kMonteCarlo), "monte-carlo");
  EXPECT_STREQ(PqeMethodToString(PqeMethod::kSafePlan), "safe-plan");
  EXPECT_STREQ(PqeMethodToString(PqeMethod::kKarpLubyLineage),
               "karp-luby-lineage");
}

TEST(EngineTest, MethodNamesAreExhaustiveAndDistinct) {
  // kAllPqeMethods must enumerate every PqeMethod; the switch in
  // PqeMethodToString has no default, so a new enumerator that is missing
  // here also trips -Wswitch at compile time.
  std::set<std::string> names;
  for (PqeMethod m : kAllPqeMethods) {
    const char* name = PqeMethodToString(m);
    EXPECT_STRNE(name, "unknown");
    names.insert(name);
  }
  EXPECT_EQ(names.size(), std::size(kAllPqeMethods));
  EXPECT_EQ(names.size(), 7u);
}

TEST(EngineTest, FprasAnswerCarriesStructuredStats) {
  auto qi = MakePathQuery(3).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 3;
  opt.density = 0.9;
  opt.seed = 4;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  ProbabilityModel pm;
  pm.kind = ProbabilityModel::Kind::kUniformHalf;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
  PqeEngine::Options opts;
  opts.method = PqeMethod::kFpras;
  opts.epsilon = 0.3;
  PqeEngine engine(opts);
  auto answer = EvalQuery(engine, qi.query, pdb);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_TRUE(answer->count_stats.has_value());
  EXPECT_GT(answer->count_stats->pool_entries, 0u);
  ASSERT_TRUE(answer->automaton.has_value());
  EXPECT_GT(answer->automaton->states, 0u);
  EXPECT_GT(answer->automaton->tree_size, 0u);
  EXPECT_FALSE(answer->karp_luby.has_value());
  // The rendered diagnostics line is derived from the same fields.
  const std::string diag = RenderDiagnostics(*answer);
  EXPECT_NE(diag.find("pool_entries="), std::string::npos);
  EXPECT_NE(diag.find("states="), std::string::npos);
}

TEST(EngineTest, KarpLubyAnswerCarriesStructuredStats) {
  auto qi = MakePathQuery(2).MoveValue();
  ProbabilisticDatabase pdb = SmallPathPdb(qi, 5);
  PqeEngine::Options opts;
  opts.method = PqeMethod::kKarpLubyLineage;
  PqeEngine engine(opts);
  auto answer = EvalQuery(engine, qi.query, pdb);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_TRUE(answer->karp_luby.has_value());
  EXPECT_GT(answer->karp_luby->samples, 0u);
  EXPECT_FALSE(answer->count_stats.has_value());
  EXPECT_NE(RenderDiagnostics(*answer).find("samples="), std::string::npos);
}

}  // namespace
}  // namespace pqe
