// Tests for the lineage module: DNF construction, the Θ(|D|^|Q|) blowup the
// paper highlights, Karp–Luby estimation, and exact Shannon-expansion WMC.

#include <cmath>

#include <gtest/gtest.h>

#include "cq/builders.h"
#include "eval/eval.h"
#include "lineage/karp_luby.h"
#include "lineage/lineage.h"
#include "workload/generators.h"

namespace pqe {
namespace {

TEST(LineageTest, PathLineageOneClausePerWitness) {
  auto qi = MakePathQuery(2).MoveValue();
  Database db(qi.schema);
  // Complete bipartite joins through b: 2 x 2 = 4 witnesses.
  ASSERT_TRUE(db.AddFactByName("R1", {"a1", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("R1", {"a2", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"b", "c1"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"b", "c2"}).ok());
  auto lineage = BuildLineage(qi.query, db).MoveValue();
  EXPECT_EQ(lineage.NumClauses(), 4u);
  EXPECT_EQ(lineage.NumLiterals(), 8u);
  EXPECT_EQ(CountWitnesses(qi.query, db).value(), 4u);
}

TEST(LineageTest, BlowupIsExponentialInQueryLength) {
  // Complete layered graph of width w: the lineage of the length-n path
  // query has exactly w^(n+1) clauses.
  const uint32_t w = 2;
  for (uint32_t n : {2u, 3u, 4u}) {
    auto qi = MakePathQuery(n).MoveValue();
    LayeredGraphOptions opt;
    opt.width = w;
    opt.density = 1.0;
    opt.seed = 1;
    auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
    auto lineage = BuildLineage(qi.query, db).MoveValue();
    EXPECT_EQ(lineage.NumClauses(), std::pow(w, n + 1))
        << "n=" << n;
  }
}

TEST(LineageTest, ClauseBudgetIsEnforced) {
  auto qi = MakePathQuery(3).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 3;
  opt.density = 1.0;
  opt.seed = 1;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  EXPECT_EQ(BuildLineage(qi.query, db, /*max_clauses=*/10).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(LineageTest, ToStringRendersClauses) {
  auto qi = MakePathQuery(1).MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  auto lineage = BuildLineage(qi.query, db).MoveValue();
  EXPECT_EQ(lineage.ToString(db), "(R1(a,b))");
}

// ----------------------------------------------------- exact Shannon WMC --

TEST(ExactDnfTest, MatchesEnumerationOnRandomInstances) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto qi = MakePathQuery(2).MoveValue();
    RandomDatabaseOptions ropt;
    ropt.domain_size = 3;
    ropt.facts_per_relation = 4;
    ropt.seed = seed;
    auto db = MakeRandomDatabase(qi.schema, ropt).MoveValue();
    ProbabilityModel pm;
    pm.seed = seed + 100;
    ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
    auto lineage = BuildLineage(qi.query, pdb.database()).MoveValue();
    auto exact = ExactDnfProbability(lineage, pdb).MoveValue();
    auto truth = ExactProbabilityByEnumeration(pdb, qi.query).MoveValue();
    EXPECT_EQ(exact.Compare(truth), 0) << "seed=" << seed;
  }
}

TEST(ExactDnfTest, EmptyLineageIsZero) {
  auto qi = MakePathQuery(2).MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  DnfLineage lineage;
  lineage.num_facts = pdb.NumFacts();
  auto p = ExactDnfProbability(lineage, pdb).MoveValue();
  EXPECT_TRUE(p.IsZero());
}

// ------------------------------------------------------------- Karp–Luby --

TEST(KarpLubyTest, WithinBandOfExact) {
  auto qi = MakePathQuery(3).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 2;
  opt.density = 0.9;
  opt.seed = 9;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  ProbabilityModel pm;
  pm.seed = 5;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
  auto lineage = BuildLineage(qi.query, pdb.database()).MoveValue();
  auto truth = ExactDnfProbability(lineage, pdb).MoveValue().ToDouble();
  KarpLubyConfig cfg;
  cfg.epsilon = 0.05;
  cfg.seed = 3;
  auto kl = KarpLubyEstimate(lineage, pdb, cfg).MoveValue();
  ASSERT_GT(truth, 0.0);
  EXPECT_NEAR(kl.probability / truth, 1.0, 0.15);
}

TEST(KarpLubyTest, EmptyLineageGivesZero) {
  auto qi = MakePathQuery(1).MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  DnfLineage lineage;
  lineage.num_facts = 1;
  KarpLubyConfig cfg;
  auto kl = KarpLubyEstimate(lineage, pdb, cfg).MoveValue();
  EXPECT_EQ(kl.probability, 0.0);
}

TEST(KarpLubyTest, ValidatesInputs) {
  auto qi = MakePathQuery(1).MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  DnfLineage bad;
  bad.num_facts = 99;  // disagrees with pdb
  KarpLubyConfig cfg;
  EXPECT_FALSE(KarpLubyEstimate(bad, pdb, cfg).ok());
  DnfLineage lineage;
  lineage.num_facts = 1;
  cfg.epsilon = 2.0;
  EXPECT_FALSE(KarpLubyEstimate(lineage, pdb, cfg).ok());
}

TEST(KarpLubyTest, EndToEndConvenienceWrapper) {
  auto qi = MakePathQuery(2).MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"b", "c"}).ok());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  KarpLubyConfig cfg;
  cfg.epsilon = 0.05;
  cfg.seed = 8;
  auto lineage = BuildLineage(qi.query, pdb.database()).MoveValue();
  auto kl = KarpLubyEstimate(lineage, pdb, cfg).MoveValue();
  EXPECT_NEAR(kl.probability, 0.25, 0.05);
  EXPECT_EQ(kl.clauses, 1u);
}

}  // namespace
}  // namespace pqe
