// Tests for the counting module: the exact oracles and the CountNFA /
// CountNFTA estimators (accuracy against exact counts on randomized
// automata).

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "counting/count_nfa.h"
#include "counting/count_nfta.h"
#include "counting/exact.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace pqe {
namespace {

EstimatorConfig TestConfig(double epsilon = 0.15, uint64_t seed = 17) {
  EstimatorConfig cfg;
  cfg.epsilon = epsilon;
  cfg.seed = seed;
  return cfg;
}

// ------------------------------------------------------------ exact NFAs

TEST(ExactNfaCountTest, BinaryStringsUniversalAutomaton) {
  // One accepting state with self-loops on {0,1}: |L_n| = 2^n.
  Nfa nfa;
  StateId s = nfa.AddState();
  nfa.MarkInitial(s);
  nfa.MarkAccepting(s);
  nfa.AddTransition(s, 0, s);
  nfa.AddTransition(s, 1, s);
  EXPECT_EQ(ExactCountNfaStrings(nfa, 10)->ToDecimalString(), "1024");
  EXPECT_EQ(ExactCountNfaStrings(nfa, 0)->ToDecimalString(), "1");
}

TEST(ExactNfaCountTest, AmbiguityDoesNotOvercount) {
  // Two redundant paths accepting the same single string "0".
  Nfa nfa;
  StateId s = nfa.AddState();
  StateId a = nfa.AddState();
  StateId b = nfa.AddState();
  nfa.MarkInitial(s);
  nfa.MarkAccepting(a);
  nfa.MarkAccepting(b);
  nfa.AddTransition(s, 0, a);
  nfa.AddTransition(s, 0, b);
  EXPECT_EQ(ExactCountNfaStrings(nfa, 1)->ToDecimalString(), "1");
}

TEST(ExactNfaCountTest, EmptyLanguage) {
  Nfa nfa;
  StateId s = nfa.AddState();
  nfa.MarkInitial(s);
  // no accepting states
  EXPECT_EQ(ExactCountNfaStrings(nfa, 3)->ToDecimalString(), "0");
}

// ----------------------------------------------------------- exact NFTAs

TEST(ExactNftaCountTest, FullBinaryTreesOverOneSymbol) {
  // q --f--> (q q) | q --f--> (): counts full binary trees with any leaf
  // arrangement = Catalan-like: sizes 1, 3, 5, 7 give 1, 1, 2, 5 trees.
  Nfta t;
  StateId q = t.AddState();
  t.SetInitialState(q);
  t.AddTransition(q, 0, {q, q});
  t.AddTransition(q, 0, {});
  EXPECT_EQ(ExactCountNftaTrees(t, 1)->ToDecimalString(), "1");
  EXPECT_EQ(ExactCountNftaTrees(t, 2)->ToDecimalString(), "0");
  EXPECT_EQ(ExactCountNftaTrees(t, 3)->ToDecimalString(), "1");
  EXPECT_EQ(ExactCountNftaTrees(t, 5)->ToDecimalString(), "2");
  EXPECT_EQ(ExactCountNftaTrees(t, 7)->ToDecimalString(), "5");
}

TEST(ExactNftaCountTest, AmbiguousRunsCountTreesOnce) {
  // Two distinct transitions generating the same leaf tree.
  Nfta t;
  StateId q = t.AddState();
  StateId a = t.AddState();
  StateId b = t.AddState();
  t.SetInitialState(q);
  t.AddTransition(q, 0, {a});
  t.AddTransition(q, 0, {b});
  t.AddTransition(a, 1, {});
  t.AddTransition(b, 1, {});
  EXPECT_EQ(ExactCountNftaTrees(t, 2)->ToDecimalString(), "1");
}

TEST(ExactNftaCountTest, RejectsLambda) {
  Nfta t;
  StateId q = t.AddState();
  StateId r = t.AddState();
  t.SetInitialState(q);
  t.AddTransition(q, Nfta::kLambdaSymbol, {r});
  EXPECT_FALSE(ExactCountNftaTrees(t, 1).ok());
}

// -------------------------------------------------- CountNFA vs exact ----

Nfa RandomNfa(Rng* rng, size_t states, size_t alphabet, size_t transitions) {
  Nfa nfa;
  for (size_t i = 0; i < states; ++i) nfa.AddState();
  nfa.EnsureAlphabetSize(alphabet);
  nfa.MarkInitial(0);
  nfa.MarkAccepting(static_cast<StateId>(rng->NextBounded(states)));
  nfa.MarkAccepting(static_cast<StateId>(rng->NextBounded(states)));
  for (size_t i = 0; i < transitions; ++i) {
    nfa.AddTransition(static_cast<StateId>(rng->NextBounded(states)),
                      static_cast<SymbolId>(rng->NextBounded(alphabet)),
                      static_cast<StateId>(rng->NextBounded(states)));
  }
  return nfa;
}

class CountNfaRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CountNfaRandom, WithinEpsilonOfExact) {
  Rng rng(GetParam());
  Nfa nfa = RandomNfa(&rng, 3 + rng.NextBounded(4), 2 + rng.NextBounded(2),
                      8 + rng.NextBounded(8));
  const size_t n = 4 + rng.NextBounded(5);
  auto exact = ExactCountNfaStrings(nfa, n);
  ASSERT_TRUE(exact.ok());
  auto est = CountNfaStrings(nfa, n, TestConfig(0.1, GetParam() * 31 + 1));
  ASSERT_TRUE(est.ok());
  const double truth = exact->ToDouble();
  const double approx = est->value.ToDouble();
  if (truth == 0.0) {
    EXPECT_EQ(approx, 0.0);
  } else {
    // Allow a generous 1.35x band: the estimator's guarantee is
    // probabilistic and these are single runs with bounded pools.
    EXPECT_GT(approx, truth / 1.35) << "n=" << n << " truth=" << truth;
    EXPECT_LT(approx, truth * 1.35) << "n=" << n << " truth=" << truth;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountNfaRandom,
                         ::testing::Range<uint64_t>(1, 41));

TEST(CountNfaTest, EmptyLanguageGivesZero) {
  Nfa nfa;
  StateId s = nfa.AddState();
  nfa.MarkInitial(s);
  nfa.AddTransition(s, 0, s);
  auto est = CountNfaStrings(nfa, 5, TestConfig());
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->value.IsZero());
}

TEST(CountNfaTest, LengthZeroIsExact) {
  // L_0 is {λ} when an initial state accepts: exactly 1, never an estimate.
  Nfa nfa;
  for (int i = 0; i < 3; ++i) {
    nfa.MarkInitial(nfa.AddState());
    nfa.MarkAccepting(static_cast<StateId>(i));
  }
  nfa.AddTransition(0, 0, 1);
  nfa.AddTransition(1, 0, 2);
  nfa.AddTransition(2, 1, 0);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    EstimatorConfig cfg = TestConfig(0.3, seed);
    cfg.pool_size = 48;
    auto est = CountNfaStrings(nfa, 0, cfg);
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    EXPECT_EQ(est->value.ToString(), ExtFloat::FromUint64(1).ToString())
        << "seed " << seed;
    EXPECT_EQ(est->value.Log2(), 0.0) << "seed " << seed;
  }
  // No initial state accepts: L_0 is empty.
  Nfa none;
  none.MarkInitial(none.AddState());
  none.MarkAccepting(none.AddState());
  none.AddTransition(0, 0, 1);
  auto est = CountNfaStrings(none, 0, TestConfig(0.3, 1));
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->value.IsZero());
}

TEST(CountNfaTest, RejectsBadEpsilon) {
  Nfa nfa;
  nfa.AddState();
  nfa.MarkInitial(0);
  nfa.MarkAccepting(0);
  EstimatorConfig cfg;
  cfg.epsilon = 0.0;
  EXPECT_FALSE(CountNfaStrings(nfa, 1, cfg).ok());
  cfg.epsilon = 1.5;
  EXPECT_FALSE(CountNfaStrings(nfa, 1, cfg).ok());
}

TEST(CountNfaTest, ExactOnUnambiguousChain) {
  // Deterministic chain: exactly one string of length 3.
  Nfa nfa;
  for (int i = 0; i < 4; ++i) nfa.AddState();
  nfa.MarkInitial(0);
  nfa.MarkAccepting(3);
  nfa.AddTransition(0, 0, 1);
  nfa.AddTransition(1, 1, 2);
  nfa.AddTransition(2, 0, 3);
  auto est = CountNfaStrings(nfa, 3, TestConfig());
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est->value.ToDouble(), 1.0, 1e-9);
}

// ------------------------------------------------- CountNFTA vs exact ----

Nfta RandomNfta(Rng* rng, size_t states, size_t alphabet,
                size_t transitions) {
  Nfta t;
  for (size_t i = 0; i < states; ++i) t.AddState();
  t.EnsureAlphabetSize(alphabet);
  t.SetInitialState(0);
  // Guarantee productivity: every state gets a leaf rule with some symbol.
  for (size_t q = 0; q < states; ++q) {
    t.AddTransition(static_cast<StateId>(q),
                    static_cast<SymbolId>(rng->NextBounded(alphabet)), {});
  }
  for (size_t i = 0; i < transitions; ++i) {
    const size_t arity = 1 + rng->NextBounded(2);
    std::vector<StateId> children;
    for (size_t j = 0; j < arity; ++j) {
      children.push_back(static_cast<StateId>(rng->NextBounded(states)));
    }
    t.AddTransition(static_cast<StateId>(rng->NextBounded(states)),
                    static_cast<SymbolId>(rng->NextBounded(alphabet)),
                    std::move(children));
  }
  return t;
}

class CountNftaRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CountNftaRandom, WithinEpsilonOfExact) {
  Rng rng(GetParam() + 1000);
  Nfta t = RandomNfta(&rng, 2 + rng.NextBounded(3), 2 + rng.NextBounded(2),
                      3 + rng.NextBounded(4));
  const size_t n = 3 + rng.NextBounded(4);
  auto exact = ExactCountNftaTrees(t, n);
  ASSERT_TRUE(exact.ok());
  auto est = CountNftaTrees(t, n, TestConfig(0.1, GetParam() * 77 + 5));
  ASSERT_TRUE(est.ok());
  const double truth = exact->ToDouble();
  const double approx = est->value.ToDouble();
  if (truth == 0.0) {
    EXPECT_EQ(approx, 0.0);
  } else {
    EXPECT_GT(approx, truth / 1.35) << "n=" << n << " truth=" << truth;
    EXPECT_LT(approx, truth * 1.35) << "n=" << n << " truth=" << truth;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountNftaRandom,
                         ::testing::Range<uint64_t>(1, 41));

TEST(CountNftaTest, RequiresLambdaFree) {
  Nfta t;
  StateId q = t.AddState();
  StateId r = t.AddState();
  t.SetInitialState(q);
  t.AddTransition(q, Nfta::kLambdaSymbol, {r});
  t.AddTransition(r, 0, {});
  EXPECT_EQ(CountNftaTrees(t, 1, TestConfig()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CountNftaTest, SizeZeroIsEmpty) {
  Nfta t;
  StateId q = t.AddState();
  t.SetInitialState(q);
  t.AddTransition(q, 0, {});
  auto est = CountNftaTrees(t, 0, TestConfig());
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->value.IsZero());
}

TEST(CountNftaTest, DeterministicForSeed) {
  Rng rng(4242);
  Nfta t = RandomNfta(&rng, 4, 2, 6);
  auto a = CountNftaTrees(t, 5, TestConfig(0.2, 9));
  auto b = CountNftaTrees(t, 5, TestConfig(0.2, 9));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->value.Compare(b->value), 0);
}

TEST(CountNftaTest, MedianOfRepetitionsIsWithinSpread) {
  Rng rng(777);
  Nfta t = RandomNfta(&rng, 4, 2, 6);
  const size_t n = 6;
  auto exact = ExactCountNftaTrees(t, n).MoveValue();
  EstimatorConfig cfg = TestConfig(0.15, 31);
  cfg.repetitions = 5;
  auto est = CountNftaTrees(t, n, cfg);
  ASSERT_TRUE(est.ok());
  const double truth = exact.ToDouble();
  if (truth > 0.0) {
    EXPECT_NEAR(est->value.ToDouble() / truth, 1.0, 0.3);
  }
  // Deterministic under amplification too.
  auto est2 = CountNftaTrees(t, n, cfg);
  ASSERT_TRUE(est2.ok());
  EXPECT_EQ(est->value.Compare(est2->value), 0);
}

TEST(CountNfaTest, MedianOfRepetitionsRuns) {
  Nfa nfa;
  StateId s0 = nfa.AddState();
  StateId s1 = nfa.AddState();
  nfa.MarkInitial(s0);
  nfa.MarkAccepting(s1);
  nfa.AddTransition(s0, 0, s1);
  nfa.AddTransition(s0, 1, s1);
  nfa.AddTransition(s1, 0, s0);
  EstimatorConfig cfg = TestConfig(0.2, 5);
  cfg.repetitions = 3;
  auto est = CountNfaStrings(nfa, 5, cfg);
  ASSERT_TRUE(est.ok());
  auto exact = ExactCountNfaStrings(nfa, 5).MoveValue();
  EXPECT_NEAR(est->value.ToDouble(), exact.ToDouble(),
              0.3 * exact.ToDouble() + 1e-9);
}

// ------------------------------------------------------- cancellation ----

// A 3-state NFA accepting every binary string (two redundant accepting
// paths, so the union estimator's rejection loop runs).
Nfa AmbiguousBinaryNfa() {
  Nfa nfa;
  for (int i = 0; i < 3; ++i) nfa.AddState();
  nfa.MarkInitial(0);
  nfa.MarkAccepting(1);
  nfa.MarkAccepting(2);
  for (StateId from : {0, 1, 2}) {
    for (SymbolId a : {0, 1}) {
      nfa.AddTransition(from, a, 1);
      nfa.AddTransition(from, a, 2);
    }
  }
  return nfa;
}

TEST(CounterCancellationTest, CountNfaPreCancelledNamesStratumZero) {
  const Nfa nfa = AmbiguousBinaryNfa();
  CancelToken token;
  token.Cancel();
  EstimatorConfig cfg = TestConfig();
  cfg.repetitions = 1;
  cfg.cancel = &token;
  auto est = CountNfaStrings(nfa, 6, cfg);
  ASSERT_EQ(est.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(est.status().message().find("count_nfa"), std::string::npos)
      << est.status().ToString();
  EXPECT_NE(est.status().message().find("stratum 0/6"), std::string::npos)
      << est.status().ToString();
  EXPECT_EQ(token.progress(), 0u);
}

TEST(CounterCancellationTest, CountNfaLiveTokenCountsEveryStratum) {
  const Nfa nfa = AmbiguousBinaryNfa();
  CancelToken token;  // no deadline: never expires
  EstimatorConfig cfg = TestConfig();
  cfg.repetitions = 1;
  cfg.cancel = &token;
  auto est = CountNfaStrings(nfa, 6, cfg);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_EQ(token.progress(), 6u);
}

TEST(CounterCancellationTest, CountNftaPreCancelledNamesStratumZero) {
  Rng rng(4242);
  const Nfta t = RandomNfta(&rng, 4, 2, 6);
  CancelToken token;
  token.Cancel();
  EstimatorConfig cfg = TestConfig();
  cfg.repetitions = 1;
  cfg.cancel = &token;
  auto est = CountNftaTrees(t, 5, cfg);
  ASSERT_EQ(est.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(est.status().message().find("count_nfta"), std::string::npos)
      << est.status().ToString();
  EXPECT_NE(est.status().message().find("stratum 0/5"), std::string::npos)
      << est.status().ToString();
  EXPECT_EQ(token.progress(), 0u);
}

TEST(CounterCancellationTest, CountNftaLiveTokenCountsEveryStratum) {
  Rng rng(4242);
  const Nfta t = RandomNfta(&rng, 4, 2, 6);
  CancelToken token;  // no deadline: never expires
  EstimatorConfig cfg = TestConfig();
  cfg.repetitions = 1;
  cfg.cancel = &token;
  auto est = CountNftaTrees(t, 5, cfg);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  EXPECT_EQ(token.progress(), 5u);
}

TEST(CountStatsTest, ToStringMentionsAllFields) {
  CountStats stats;
  stats.strata_total = 10;
  stats.strata_live = 4;
  std::string s = stats.ToString();
  EXPECT_NE(s.find("strata_total=10"), std::string::npos);
  EXPECT_NE(s.find("strata_live=4"), std::string::npos);
  // Every field in the canonical list must be rendered.
#define PQE_COUNT_STATS_EXPECT(field) \
  EXPECT_NE(s.find(#field "="), std::string::npos) << #field;
  PQE_COUNT_STATS_FIELDS(PQE_COUNT_STATS_EXPECT)
#undef PQE_COUNT_STATS_EXPECT
}

}  // namespace
}  // namespace pqe
