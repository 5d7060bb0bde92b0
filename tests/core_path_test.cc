// Tests for the Section 3 construction (Theorem 2): the path-query NFA and
// PathEstimate. The key property is the bijection |L_{|D'|}(M)| = UR(Q, D).
// Also home of the pinned-answer table for both automaton routes.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/path_pqe.h"
#include "counting/exact.h"
#include "cq/builders.h"
#include "eval/eval.h"
#include "pdb/probabilistic_database.h"
#include "rpq/regex.h"
#include "serve/service.h"
#include "workload/generators.h"

namespace pqe {
namespace {

TEST(PathNfaTest, RejectsNonPathQueries) {
  auto star = MakeStarQuery(3).MoveValue();
  Database db(star.schema);
  EXPECT_EQ(BuildPathQueryNfa(star.query, db).status().code(),
            StatusCode::kNotSupported);
  auto sj = MakeSelfJoinPathQuery(3).MoveValue();
  Database db2(sj.schema);
  EXPECT_EQ(BuildPathQueryNfa(sj.query, db2).status().code(),
            StatusCode::kNotSupported);
}

TEST(PathNfaTest, EmptyRelationYieldsEmptyLanguage) {
  auto qi = MakePathQuery(2).MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  // R2 empty.
  auto m = BuildPathQueryNfa(qi.query, db);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(ExactCountNfaStrings(m->nfa, m->word_length)->ToDecimalString(),
            "0");
}

TEST(PathNfaTest, WordLengthEqualsProjectedFacts) {
  auto qi = MakePathQuery(2).MoveValue();
  Schema schema = qi.schema;  // add an extra relation outside the query
  ASSERT_TRUE(schema.AddRelation("Other", 1).ok());
  Database db(schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"b", "c"}).ok());
  ASSERT_TRUE(db.AddFactByName("Other", {"z"}).ok());
  auto m = BuildPathQueryNfa(qi.query, db);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->word_length, 2u);
  EXPECT_EQ(m->dropped_facts, 1u);
  // UR doubles for the free extra fact.
  EXPECT_EQ(PathUniformReliabilityExact(qi.query, db)->ToDecimalString(),
            "2");
}

// Property: the NFA's exact string count equals brute-force UR, across
// random layered instances and query lengths.
struct PathCase {
  uint32_t length;
  uint32_t width;
  double density;
  uint64_t seed;
};

class PathBijection : public ::testing::TestWithParam<PathCase> {};

TEST_P(PathBijection, ExactCountMatchesEnumeration) {
  const PathCase& c = GetParam();
  auto qi = MakePathQuery(c.length).MoveValue();
  LayeredGraphOptions opt;
  opt.width = c.width;
  opt.density = c.density;
  opt.seed = c.seed;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  if (db.NumFacts() > 18) GTEST_SKIP() << "instance too large to enumerate";
  auto truth = UniformReliabilityByEnumeration(db, qi.query);
  ASSERT_TRUE(truth.ok());
  auto via_nfa = PathUniformReliabilityExact(qi.query, db);
  ASSERT_TRUE(via_nfa.ok());
  EXPECT_EQ(via_nfa->ToDecimalString(), truth->ToDecimalString())
      << "length=" << c.length << " width=" << c.width << " seed=" << c.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PathBijection,
    ::testing::Values(PathCase{1, 3, 0.8, 1}, PathCase{2, 2, 0.9, 2},
                      PathCase{2, 3, 0.5, 3}, PathCase{3, 2, 0.7, 4},
                      PathCase{3, 2, 0.4, 5}, PathCase{4, 2, 0.5, 6},
                      PathCase{4, 1, 1.0, 7}, PathCase{5, 1, 0.8, 8},
                      PathCase{3, 2, 0.9, 9}, PathCase{2, 4, 0.4, 10}));

// PathEstimate (the FPRAS) lands near the exact value.
TEST(PathEstimateTest, EstimateWithinBand) {
  auto qi = MakePathQuery(3).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 2;
  opt.density = 0.8;
  opt.seed = 11;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  auto truth = PathUniformReliabilityExact(qi.query, db).MoveValue();
  EstimatorConfig cfg;
  cfg.epsilon = 0.1;
  cfg.seed = 5;
  auto est = PathEstimate(qi.query, db, cfg);
  ASSERT_TRUE(est.ok());
  const double t = truth.ToDouble();
  ASSERT_GT(t, 0.0);
  EXPECT_GT(est->ur.ToDouble(), t / 1.3);
  EXPECT_LT(est->ur.ToDouble(), t * 1.3);
  EXPECT_GT(est->nfa_states, 0u);
  EXPECT_GT(est->nfa_transitions, 0u);
}

// ---------------------------------------------------------------------------
// Theorem 1's string specialization for path queries (weighted automata).
// ---------------------------------------------------------------------------

TEST(PathPqeTest, ExactAgreesWithEnumeration) {
  auto qi = MakePathQuery(2).MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "c"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"b", "d"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"c", "d"}).ok());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  ASSERT_TRUE(pdb.SetProbability(0, Probability{1, 3}).ok());
  ASSERT_TRUE(pdb.SetProbability(2, Probability{3, 4}).ok());
  ASSERT_TRUE(pdb.SetProbability(3, Probability{2, 7}).ok());
  auto truth = ExactProbabilityByEnumeration(pdb, qi.query).MoveValue();
  auto via_strings = PathPqeExact(qi.query, pdb).MoveValue();
  EXPECT_EQ(via_strings.Compare(truth), 0)
      << via_strings.ToString() << " vs " << truth.ToString();
}

TEST(PathPqeTest, SweepAgainstEnumeration) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto qi = MakePathQuery(3).MoveValue();
    LayeredGraphOptions opt;
    opt.width = 2;
    opt.density = 0.6;
    opt.seed = seed;
    auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
    if (db.NumFacts() > 13) continue;
    ProbabilityModel pm;
    pm.max_denominator = 8;
    pm.seed = seed + 40;
    ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
    auto truth = ExactProbabilityByEnumeration(pdb, qi.query).MoveValue();
    auto via_strings = PathPqeExact(qi.query, pdb).MoveValue();
    EXPECT_EQ(via_strings.Compare(truth), 0) << "seed=" << seed;
  }
}

TEST(PathPqeTest, EstimateWithinBand) {
  auto qi = MakePathQuery(3).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 2;
  opt.density = 0.8;
  opt.seed = 3;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  ProbabilityModel pm;
  pm.max_denominator = 8;
  pm.seed = 4;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
  auto truth =
      ExactProbabilityByEnumeration(pdb, qi.query).MoveValue().ToDouble();
  ASSERT_GT(truth, 0.0);
  EstimatorConfig cfg;
  cfg.epsilon = 0.1;
  cfg.seed = 12;
  cfg.repetitions = 3;
  auto est = PathPqeEstimate(qi.query, pdb, cfg);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_GT(est->probability, truth / 1.35);
  EXPECT_LT(est->probability, truth * 1.35 + 1e-12);
  EXPECT_GT(est->nfa_states, 0u);
}

TEST(PathPqeTest, RejectsNonPathQueries) {
  auto star = MakeStarQuery(2).MoveValue();
  Database db(star.schema);
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  EstimatorConfig cfg;
  EXPECT_EQ(PathPqeEstimate(star.query, pdb, cfg).status().code(),
            StatusCode::kNotSupported);
}

// The automaton grows polynomially: states are bounded by Σ c_i² + 1.
TEST(PathNfaTest, StateCountPolynomialBound) {
  for (uint32_t len : {2u, 4u, 6u}) {
    auto qi = MakePathQuery(len).MoveValue();
    LayeredGraphOptions opt;
    opt.width = 3;
    opt.density = 0.6;
    opt.seed = len;
    auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
    auto m = BuildPathQueryNfa(qi.query, db).MoveValue();
    size_t bound = 1;
    for (uint32_t i = 0; i < len; ++i) {
      size_t c = db.FactsOf(qi.query.atom(i).relation).size();
      bound += c * c;
    }
    EXPECT_LE(m.nfa.NumStates(), bound);
  }
}

// --- Answers pinned across commits ------------------------------------------
//
// Bit-identity tests elsewhere compare two paths inside one build, so an
// encoding change that hits both paths equally slips past them. This table
// pins the answers themselves: the probability's bit pattern and the bound
// automaton's (states, transitions, k), per route, at fixed seeds. A row
// may only change together with a deliberate, documented change of the
// encoding or the sampler.

PqeEngine::Options PinnedOptions() {
  auto opts = PqeEngine::Options::Builder()
                  .Method(PqeMethod::kFpras)
                  .Epsilon(0.3)
                  .Seed(0xfeed)
                  .PoolSize(48)
                  .Repetitions(1)
                  .NumThreads(1)
                  .Build();
  EXPECT_TRUE(opts.ok()) << opts.status().ToString();
  return *opts;
}

// Caterpillar-3 (tree route: the unary labels make it a non-path query).
QueryInstance PinnedCaterpillar() {
  return MakeCaterpillarQuery(3).MoveValue();
}

ProbabilisticDatabase PinnedCaterpillarData(const QueryInstance& qi) {
  Database db(qi.schema);
  const std::pair<const char*, std::vector<std::string>> facts[] = {
      {"R1", {"a0", "b0"}}, {"R1", {"a1", "b0"}}, {"R1", {"a1", "b1"}},
      {"L2", {"b0"}},       {"L2", {"b1"}},       {"R2", {"b0", "c0"}},
      {"R2", {"b1", "c1"}}, {"R2", {"b0", "c1"}}, {"L3", {"c0"}},
      {"L3", {"c1"}},       {"R3", {"c0", "d0"}}, {"R3", {"c1", "d1"}},
  };
  for (const auto& [rel, args] : facts) {
    EXPECT_TRUE(db.AddFactByName(rel, args).ok());
  }
  ProbabilityModel pm;
  pm.max_denominator = 8;
  pm.seed = 12;
  return AttachProbabilities(std::move(db), pm);
}

struct PinnedRow {
  const char* name;
  const char* probability_bits;  // hex of the double's bit pattern
  size_t states;
  size_t transitions;
  size_t k;
};

constexpr PinnedRow kPinnedRows[] = {
    {"tree_caterpillar3", "3fae1045ae462847", 320, 631, 46},
    {"path_cq3", "3fe65abc2186185d", 329, 654, 36},
    {"rpq_product", "3fe1da924924924e", 331, 650, 28},
    {"tree_delta_patch", "3fb4ace2ec81541b", 320, 631, 46},
};

std::string ProbabilityBits(double p) {
  uint64_t bits = 0;
  std::memcpy(&bits, &p, sizeof(bits));
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

PqeAnswer PinnedAnswer(const std::string& name) {
  const PqeEngine::Options opts = PinnedOptions();
  if (name == "tree_caterpillar3") {
    QueryInstance qi = PinnedCaterpillar();
    ProbabilisticDatabase pdb = PinnedCaterpillarData(qi);
    EvalResponse r =
        PqeEngine(opts).EvaluateRequest(EvalRequest::ForQuery(qi.query, pdb));
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    return r.answer;
  }
  if (name == "path_cq3") {
    auto qi = MakePathQuery(3).MoveValue();
    LayeredGraphOptions gopt;
    gopt.width = 2;
    gopt.density = 0.8;
    gopt.seed = 3;
    ProbabilityModel pm;
    pm.max_denominator = 8;
    pm.seed = 4;
    ProbabilisticDatabase pdb = AttachProbabilities(
        MakeLayeredPathDatabase(qi, gopt).MoveValue(), pm);
    EvalResponse r =
        PqeEngine(opts).EvaluateRequest(EvalRequest::ForQuery(qi.query, pdb));
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    return r.answer;
  }
  if (name == "rpq_product") {
    KgReachabilityOptions kopt;
    kopt.layers = 3;
    kopt.width = 2;
    kopt.density = 0.6;
    kopt.seed = 5;
    ProbabilityModel pm;
    pm.max_denominator = 8;
    pm.seed = 6;
    ProbabilisticDatabase pdb = AttachProbabilities(
        MakeKgReachabilityDatabase(kopt).MoveValue(), pm);
    auto q = rpq::RpqQuery::Parse("a/(a|b)*/a").MoveValue();
    EXPECT_FALSE(q.IsLinearChain());  // the product construction, not lowering
    EvalResponse r =
        PqeEngine(opts).EvaluateRequest(EvalRequest::ForRpq(q, pdb));
    EXPECT_TRUE(r.status.ok()) << r.status.ToString();
    return r.answer;
  }
  // tree_delta_patch: a served caterpillar whose bind is refreshed by a
  // numerator-only update, i.e. by patching gadget slots in place.
  QueryInstance qi = PinnedCaterpillar();
  ProbabilisticDatabase pdb = PinnedCaterpillarData(qi);
  serve::PqeService::Options sopt;
  sopt.engine = opts;
  sopt.num_threads = 1;
  serve::PqeService service(sopt);
  const EvalRequest first = EvalRequest::ForQuery(qi.query, pdb);
  EXPECT_TRUE(service.Evaluate(first).status.ok());
  const Probability p = pdb.probability(0);
  const serve::LabelDelta delta{
      {0}, {Probability{(p.num + 1) % (p.den + 1), p.den}}};
  auto stats = service.ApplyUpdate(&pdb, delta);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (stats.ok()) {
    EXPECT_EQ(stats->delta_rebinds, 1u);
  }
  EvalResponse r = service.Evaluate(EvalRequest::ForQuery(qi.query, pdb));
  EXPECT_TRUE(r.status.ok()) << r.status.ToString();
  return r.answer;
}

TEST(PinnedAnswerTest, AnswersAndAutomatonShapesMatchTheTable) {
  for (const PinnedRow& row : kPinnedRows) {
    const PqeAnswer a = PinnedAnswer(row.name);
    ASSERT_TRUE(a.automaton.has_value()) << row.name;
    const std::string what = row.name;
    EXPECT_EQ(ProbabilityBits(a.probability), row.probability_bits)
        << what << ": p=" << a.probability;
    EXPECT_EQ(a.automaton->states, row.states) << what;
    EXPECT_EQ(a.automaton->transitions, row.transitions) << what;
    EXPECT_EQ(a.automaton->tree_size, row.k) << what;
  }
}

}  // namespace
}  // namespace pqe
