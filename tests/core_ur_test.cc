// Tests for the Proposition 1 construction and Theorem 3 (UREstimate): the
// bijection between accepted trees of size |D'| and satisfying subinstances,
// across the paper's query families.

#include <gtest/gtest.h>

#include "core/ur_construction.h"
#include "cq/builders.h"
#include "eval/eval.h"
#include "workload/generators.h"

namespace pqe {
namespace {

TEST(UrConstructionTest, RejectsSelfJoins) {
  auto sj = MakeSelfJoinPathQuery(2).MoveValue();
  Database db(sj.schema);
  ASSERT_TRUE(db.AddFactByName("R", {"a", "b"}).ok());
  UrConstructionOptions opts;
  EXPECT_EQ(BuildUrAutomaton(sj.query, db, opts).status().code(),
            StatusCode::kNotSupported);
}

TEST(UrConstructionTest, RejectsWidthBeyondBudget) {
  auto cyc = MakeCycleQuery(4).MoveValue();
  Database db(cyc.schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  UrConstructionOptions opts;
  opts.max_width = 1;
  EXPECT_EQ(BuildUrAutomaton(cyc.query, db, opts).status().code(),
            StatusCode::kNotSupported);
}

TEST(UrConstructionTest, EmptyDatabaseGivesZero) {
  auto qi = MakePathQuery(2).MoveValue();
  Database db(qi.schema);
  auto ur = UrExactViaAutomaton(qi.query, db);
  ASSERT_TRUE(ur.ok());
  EXPECT_EQ(ur->ToDecimalString(), "0");
}

TEST(UrConstructionTest, TreeSizeIsProjectedFactCount) {
  auto qi = MakePathQuery(2).MoveValue();
  Schema schema = qi.schema;
  ASSERT_TRUE(schema.AddRelation("Noise", 1).ok());
  Database db(schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"b", "c"}).ok());
  ASSERT_TRUE(db.AddFactByName("Noise", {"n"}).ok());
  UrConstructionOptions opts;
  auto automaton = BuildUrAutomaton(qi.query, db, opts);
  ASSERT_TRUE(automaton.ok());
  EXPECT_EQ(automaton->tree_size, 2u);
  EXPECT_EQ(automaton->dropped_facts, 1u);
  // UR = 1 subinstance of D' times 2 for the free noise fact.
  EXPECT_EQ(UrExactViaAutomaton(qi.query, db)->ToDecimalString(), "2");
}

TEST(UrConstructionTest, DecompositionIsBinarizedAndComplete) {
  auto star = MakeStarQuery(5).MoveValue();
  StarDataOptions sopt;
  sopt.hubs = 2;
  sopt.spokes_per_hub = 1;
  sopt.seed = 3;
  auto db = MakeStarDatabase(star, sopt).MoveValue();
  UrConstructionOptions opts;
  auto automaton = BuildUrAutomaton(star.query, db, opts).MoveValue();
  for (uint32_t p = 0; p < automaton.hd.NumNodes(); ++p) {
    EXPECT_LE(automaton.hd.node(p).children.size(), 2u);
  }
  EXPECT_TRUE(automaton.hd.IsComplete(star.query));
}

// ---------------------------------------------------------------------------
// The bijection property across query families and random databases.
// ---------------------------------------------------------------------------

// uint64_t-sized so UrCase has no padding: gtest names each case by the
// struct's raw bytes, which must not include uninitialised ones.
enum class Family : uint64_t {
  kPath2,
  kPath3,
  kStar3,
  kH0,
  kCycle3,
  kCaterpillar2,
  kSnowflake22
};

struct UrCase {
  Family family;
  uint64_t seed;
};

QueryInstance MakeFamily(Family family) {
  switch (family) {
    case Family::kPath2:
      return MakePathQuery(2).MoveValue();
    case Family::kPath3:
      return MakePathQuery(3).MoveValue();
    case Family::kStar3:
      return MakeStarQuery(3).MoveValue();
    case Family::kH0:
      return MakeH0Query().MoveValue();
    case Family::kCycle3:
      return MakeCycleQuery(3).MoveValue();
    case Family::kCaterpillar2:
      return MakeCaterpillarQuery(2).MoveValue();
    case Family::kSnowflake22:
      return MakeSnowflakeQuery(2, 2).MoveValue();
  }
  return MakePathQuery(1).MoveValue();
}

class UrBijection : public ::testing::TestWithParam<UrCase> {};

TEST_P(UrBijection, AutomatonCountMatchesEnumeration) {
  const UrCase& c = GetParam();
  QueryInstance qi = MakeFamily(c.family);
  RandomDatabaseOptions ropt;
  ropt.domain_size = 3;
  ropt.facts_per_relation = 3;
  ropt.seed = c.seed;
  auto db = MakeRandomDatabase(qi.schema, ropt).MoveValue();
  if (db.NumFacts() > 16) GTEST_SKIP();
  auto truth = UniformReliabilityByEnumeration(db, qi.query);
  ASSERT_TRUE(truth.ok());
  UrConstructionOptions opts;
  auto via_automaton = UrExactViaAutomaton(qi.query, db, opts);
  ASSERT_TRUE(via_automaton.ok()) << via_automaton.status().ToString();
  EXPECT_EQ(via_automaton->ToDecimalString(), truth->ToDecimalString())
      << "seed=" << c.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Families, UrBijection,
    ::testing::Values(
        UrCase{Family::kPath2, 1}, UrCase{Family::kPath2, 2},
        UrCase{Family::kPath3, 3}, UrCase{Family::kPath3, 4},
        UrCase{Family::kStar3, 5}, UrCase{Family::kStar3, 6},
        UrCase{Family::kH0, 7}, UrCase{Family::kH0, 8},
        UrCase{Family::kCycle3, 9}, UrCase{Family::kCycle3, 10},
        UrCase{Family::kCaterpillar2, 11}, UrCase{Family::kCaterpillar2, 12},
        UrCase{Family::kPath3, 13}, UrCase{Family::kH0, 14},
        UrCase{Family::kCycle3, 15}, UrCase{Family::kStar3, 16},
        UrCase{Family::kSnowflake22, 17}, UrCase{Family::kSnowflake22, 18}));

// Theorem 3's estimator lands near the truth.
TEST(UrEstimateTest, EstimateWithinBand) {
  auto qi = MakeH0Query().MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R", {"a"}).ok());
  ASSERT_TRUE(db.AddFactByName("R", {"b"}).ok());
  ASSERT_TRUE(db.AddFactByName("S", {"a", "u"}).ok());
  ASSERT_TRUE(db.AddFactByName("S", {"b", "u"}).ok());
  ASSERT_TRUE(db.AddFactByName("S", {"b", "v"}).ok());
  ASSERT_TRUE(db.AddFactByName("T", {"u"}).ok());
  ASSERT_TRUE(db.AddFactByName("T", {"v"}).ok());
  auto truth = UniformReliabilityByEnumeration(db, qi.query).MoveValue();
  EstimatorConfig cfg;
  cfg.epsilon = 0.1;
  cfg.seed = 77;
  auto est = UrEstimate(qi.query, db, cfg);
  ASSERT_TRUE(est.ok());
  const double t = truth.ToDouble();
  EXPECT_GT(est->ur.ToDouble(), t / 1.3);
  EXPECT_LT(est->ur.ToDouble(), t * 1.3);
  EXPECT_EQ(est->tree_size, 7u);
  EXPECT_EQ(est->decomposition_width, 1u);
}

// Determinism: same seed, same estimate.
TEST(UrEstimateTest, DeterministicForSeed) {
  auto qi = MakePathQuery(2).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 2;
  opt.seed = 4;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  EstimatorConfig cfg;
  cfg.epsilon = 0.2;
  cfg.seed = 123;
  auto a = UrEstimate(qi.query, db, cfg);
  auto b = UrEstimate(qi.query, db, cfg);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ur.Compare(b->ur), 0);
}

}  // namespace
}  // namespace pqe
