// Tests for the Theorem 1 pipeline: multiplier attachment, the padded
// comparator sizes, and PqeEstimate / PqeExactViaAutomaton against the
// possible-world oracle.

#include <gtest/gtest.h>

#include "core/pqe.h"
#include "cq/builders.h"
#include "eval/eval.h"
#include "workload/generators.h"

namespace pqe {
namespace {

// A tiny fixed instance used by several tests.
ProbabilisticDatabase TinyPathPdb(const QueryInstance& qi) {
  Database db(qi.schema);
  EXPECT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  EXPECT_TRUE(db.AddFactByName("R1", {"a", "c"}).ok());
  EXPECT_TRUE(db.AddFactByName("R2", {"b", "d"}).ok());
  EXPECT_TRUE(db.AddFactByName("R2", {"c", "d"}).ok());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  EXPECT_TRUE(pdb.SetProbability(0, Probability{1, 3}).ok());
  EXPECT_TRUE(pdb.SetProbability(1, Probability{2, 5}).ok());
  EXPECT_TRUE(pdb.SetProbability(2, Probability{3, 4}).ok());
  EXPECT_TRUE(pdb.SetProbability(3, Probability{1, 7}).ok());
  return pdb;
}

TEST(PqeAutomatonTest, ExactAgreesWithEnumeration) {
  auto qi = MakePathQuery(2).MoveValue();
  ProbabilisticDatabase pdb = TinyPathPdb(qi);
  auto truth = ExactProbabilityByEnumeration(pdb, qi.query).MoveValue();
  auto via_automaton = PqeExactViaAutomaton(qi.query, pdb).MoveValue();
  EXPECT_EQ(via_automaton.Compare(truth), 0)
      << via_automaton.ToString() << " vs " << truth.ToString();
}

TEST(PqeAutomatonTest, DenominatorIsProductOfFactDenominators) {
  auto qi = MakePathQuery(2).MoveValue();
  ProbabilisticDatabase pdb = TinyPathPdb(qi);
  UrConstructionOptions opts;
  auto automaton = BuildPqeAutomaton(qi.query, pdb, opts).MoveValue();
  EXPECT_EQ(automaton.denominator.ToDecimalString(),
            std::to_string(3 * 5 * 4 * 7));
}

TEST(PqeAutomatonTest, TreeSizeAddsPaddedGadgetWidths) {
  auto qi = MakePathQuery(2).MoveValue();
  ProbabilisticDatabase pdb = TinyPathPdb(qi);
  UrConstructionOptions opts;
  auto automaton = BuildPqeAutomaton(qi.query, pdb, opts).MoveValue();
  // Widths are denominator-sized (u(d_i) covers every multiplier 0..d_i, so
  // the shape is labelling-value independent for delta rebinds):
  // 1/3 → u(3) = 2; 2/5 → u(5) = 3; 3/4 → u(4) = 2; 1/7 → u(7) = 3.
  EXPECT_EQ(automaton.tree_size, 4u + 2u + 3u + 2u + 3u);
}

TEST(PqeAutomatonTest, ZeroAndOneProbabilitiesDropBranches) {
  auto qi = MakePathQuery(1).MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("R1", {"c", "d"}).ok());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  ASSERT_TRUE(pdb.SetProbability(0, Probability{0, 1}).ok());  // never
  ASSERT_TRUE(pdb.SetProbability(1, Probability{1, 1}).ok());  // always
  // Query satisfied iff some R1 fact present: fact 1 always present → 1.
  auto p = PqeExactViaAutomaton(qi.query, pdb).MoveValue();
  EXPECT_EQ(p.Compare(BigRational::One()), 0);
  auto truth = ExactProbabilityByEnumeration(pdb, qi.query).MoveValue();
  EXPECT_EQ(p.Compare(truth), 0);
}

TEST(PqeAutomatonTest, UniformHalfReducesToUniformReliability) {
  auto qi = MakePathQuery(2).MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"b", "c"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"b", "d"}).ok());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(db);
  auto p = PqeExactViaAutomaton(qi.query, pdb).MoveValue();
  auto ur = UniformReliabilityByEnumeration(db, qi.query).MoveValue();
  // Pr = UR / 2^|D|.
  BigRational expected(ur, BigUint::PowerOfTwo(db.NumFacts()));
  EXPECT_EQ(p.Compare(expected), 0);
}

// ---------------------------------------------------------------------------
// Property sweep: exact automaton probability == enumeration across families
// and probability models.
// ---------------------------------------------------------------------------

// Every field is 64-bit so the struct has no padding: gtest names each case
// by the struct's raw bytes, and padding bytes would make the names vary
// from run to run.
struct PqeCase {
  uint64_t family;  // 0=path2, 1=star2, 2=h0, 3=cycle3
  uint64_t seed;
  uint64_t max_den;
};

class PqeAgreement : public ::testing::TestWithParam<PqeCase> {};

TEST_P(PqeAgreement, AutomatonMatchesEnumeration) {
  const PqeCase& c = GetParam();
  QueryInstance qi = c.family == 0   ? MakePathQuery(2).MoveValue()
                     : c.family == 1 ? MakeStarQuery(2).MoveValue()
                     : c.family == 2 ? MakeH0Query().MoveValue()
                                     : MakeCycleQuery(3).MoveValue();
  RandomDatabaseOptions ropt;
  ropt.domain_size = 3;
  ropt.facts_per_relation = 3;
  ropt.seed = c.seed;
  auto db = MakeRandomDatabase(qi.schema, ropt).MoveValue();
  if (db.NumFacts() > 12) GTEST_SKIP();
  ProbabilityModel pm;
  pm.max_denominator = c.max_den;
  pm.seed = c.seed * 13 + 1;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
  auto truth = ExactProbabilityByEnumeration(pdb, qi.query);
  ASSERT_TRUE(truth.ok());
  auto via = PqeExactViaAutomaton(qi.query, pdb);
  ASSERT_TRUE(via.ok()) << via.status().ToString();
  EXPECT_EQ(via->Compare(*truth), 0)
      << "family=" << c.family << " seed=" << c.seed << ": "
      << via->ToString() << " vs " << truth->ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PqeAgreement,
    ::testing::Values(PqeCase{0, 1, 4}, PqeCase{0, 2, 9}, PqeCase{0, 3, 2},
                      PqeCase{1, 4, 5}, PqeCase{1, 5, 16}, PqeCase{2, 6, 3},
                      PqeCase{2, 7, 8}, PqeCase{2, 8, 2}, PqeCase{3, 9, 4},
                      PqeCase{3, 10, 6}, PqeCase{0, 11, 32},
                      PqeCase{2, 12, 32}));

// The FPRAS estimate is close to the exact probability.
TEST(PqeEstimateTest, EstimateWithinBand) {
  auto qi = MakePathQuery(2).MoveValue();
  ProbabilisticDatabase pdb = TinyPathPdb(qi);
  auto truth = ExactProbabilityByEnumeration(pdb, qi.query).MoveValue();
  EstimatorConfig cfg;
  cfg.epsilon = 0.1;
  cfg.seed = 21;
  auto est = PqeEstimate(qi.query, pdb, cfg);
  ASSERT_TRUE(est.ok());
  const double t = truth.ToDouble();
  ASSERT_GT(t, 0.0);
  EXPECT_GT(est->probability, t / 1.3);
  EXPECT_LT(est->probability, t * 1.3);
  EXPECT_GT(est->nfta_states, 0u);
}

TEST(PqeEstimateTest, ImpossibleQueryGivesZero) {
  auto qi = MakePathQuery(2).MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"x", "y"}).ok());  // no join
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  EstimatorConfig cfg;
  cfg.epsilon = 0.2;
  auto est = PqeEstimate(qi.query, pdb, cfg);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->tree_count.IsZero());
  EXPECT_EQ(est->probability, 0.0);
}

TEST(PqeEstimateTest, RejectsSelfJoins) {
  auto sj = MakeSelfJoinPathQuery(2).MoveValue();
  Database db(sj.schema);
  ASSERT_TRUE(db.AddFactByName("R", {"a", "b"}).ok());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  EstimatorConfig cfg;
  EXPECT_EQ(PqeEstimate(sj.query, pdb, cfg).status().code(),
            StatusCode::kNotSupported);
}

}  // namespace
}  // namespace pqe
