// Tests for unions of conjunctive queries: parsing, satisfaction, union
// lineage, and agreement between the exact/approximate union evaluators.

#include <gtest/gtest.h>

#include "cq/parser.h"
#include "cq/ucq.h"
#include "eval/ucq_eval.h"
#include "lineage/karp_luby.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace pqe {
namespace {

Schema GraphSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddRelation("E", 2).ok());
  EXPECT_TRUE(schema.AddRelation("F", 2).ok());
  EXPECT_TRUE(schema.AddRelation("L", 1).ok());
  return schema;
}

TEST(UnionQueryTest, ParseAndRender) {
  Schema schema = GraphSchema();
  auto u = ParseUnionQuery(schema, "E(x,y), L(x) | F(u,v)");
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_EQ(u->NumDisjuncts(), 2u);
  EXPECT_EQ(u->ToString(schema), "E(x,y), L(x) | F(u,v)");
  EXPECT_TRUE(u->AllDisjunctsSelfJoinFree());
  EXPECT_FALSE(ParseUnionQuery(schema, "E(x,y) |").ok());
  EXPECT_FALSE(ParseUnionQuery(schema, "").ok());
}

TEST(UnionQueryTest, MakeRequiresDisjuncts) {
  EXPECT_FALSE(UnionQuery::Make({}).ok());
}

TEST(UnionEvalTest, SatisfactionIsDisjunction) {
  Schema schema = GraphSchema();
  auto u = ParseUnionQuery(schema, "E(x,y), L(y) | F(u,u)").MoveValue();
  Database db(schema);
  ASSERT_TRUE(db.AddFactByName("E", {"a", "b"}).ok());
  // Neither disjunct holds yet (no L(b), no F self-loop).
  EXPECT_FALSE(SatisfiesUnion(db, u).value());
  ASSERT_TRUE(db.AddFactByName("F", {"c", "c"}).ok());
  EXPECT_TRUE(SatisfiesUnion(db, u).value());
}

TEST(UnionEvalTest, LineageIsDeduplicatedUnion) {
  Schema schema = GraphSchema();
  // Both disjuncts can produce the same clause {E(a,b)}.
  auto u = ParseUnionQuery(schema, "E(x,y) | E(u,v)").MoveValue();
  Database db(schema);
  ASSERT_TRUE(db.AddFactByName("E", {"a", "b"}).ok());
  auto lineage = BuildUnionLineage(u, db).MoveValue();
  EXPECT_EQ(lineage.NumClauses(), 1u);
}

class UnionAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnionAgreement, ExactMethodsAgreeAndKarpLubyTracks) {
  const uint64_t seed = GetParam();
  Schema schema = GraphSchema();
  auto u = ParseUnionQuery(schema, "E(x,y), F(y,z) | E(x,y), L(y) | F(a,a)")
               .MoveValue();
  RandomDatabaseOptions ropt;
  ropt.domain_size = 3;
  ropt.facts_per_relation = 4;
  ropt.seed = seed * 7 + 1;
  auto db = MakeRandomDatabase(schema, ropt).MoveValue();
  if (db.NumFacts() > 14) GTEST_SKIP();
  ProbabilityModel pm;
  pm.seed = seed * 3 + 5;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);

  auto truth = ExactUnionProbabilityByEnumeration(pdb, u).MoveValue();
  auto via_lineage = ExactUnionProbability(u, pdb).MoveValue();
  EXPECT_EQ(via_lineage.Compare(truth), 0) << "seed=" << seed;

  const double t = truth.ToDouble();
  if (t > 0.0) {
    KarpLubyConfig cfg;
    cfg.epsilon = 0.05;
    cfg.seed = seed * 11 + 3;
    auto lineage = BuildUnionLineage(u, pdb.database()).MoveValue();
    auto kl = KarpLubyEstimate(lineage, pdb, cfg).MoveValue();
    EXPECT_NEAR(kl.probability / t, 1.0, 0.2) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionAgreement,
                         ::testing::Range<uint64_t>(1, 13));

TEST(UnionEvalTest, SingleDisjunctMatchesCqPath) {
  Schema schema = GraphSchema();
  auto cq = ParseQuery(schema, "E(x,y), L(y)").MoveValue();
  auto u = UnionQuery::Make({cq}).MoveValue();
  Database db(schema);
  ASSERT_TRUE(db.AddFactByName("E", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("L", {"b"}).ok());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  auto union_p = ExactUnionProbability(u, pdb).MoveValue();
  EXPECT_EQ(union_p.Normalized().ToString(), "1/4");
}

}  // namespace
}  // namespace pqe
