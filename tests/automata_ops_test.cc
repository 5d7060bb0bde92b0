// Tests for automata set operations, cross-validated with the exact
// counters: |L_n(A∪B)| = |L_n(A)| + |L_n(B)| − |L_n(A∩B)|, reversal
// preserves counts, products decide disjointness, and the unary tree
// encoding of a string automaton counts its strings.

#include <gtest/gtest.h>

#include "automata/ops.h"
#include "counting/count_nfa.h"
#include "counting/count_nfta.h"
#include "counting/exact.h"
#include "util/rng.h"

namespace pqe {
namespace {

Nfa RandomNfa(Rng* rng, size_t states, size_t alphabet, size_t transitions) {
  Nfa nfa;
  for (size_t i = 0; i < states; ++i) nfa.AddState();
  nfa.EnsureAlphabetSize(alphabet);
  nfa.MarkInitial(0);
  nfa.MarkAccepting(static_cast<StateId>(rng->NextBounded(states)));
  for (size_t i = 0; i < transitions; ++i) {
    nfa.AddTransition(static_cast<StateId>(rng->NextBounded(states)),
                      static_cast<SymbolId>(rng->NextBounded(alphabet)),
                      static_cast<StateId>(rng->NextBounded(states)));
  }
  return nfa;
}

class NfaAlgebraSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NfaAlgebraSweep, InclusionExclusionHolds) {
  Rng rng(GetParam());
  Nfa a = RandomNfa(&rng, 3 + rng.NextBounded(3), 2, 6 + rng.NextBounded(6));
  Nfa b = RandomNfa(&rng, 3 + rng.NextBounded(3), 2, 6 + rng.NextBounded(6));
  const size_t n = 3 + rng.NextBounded(4);
  auto ca = ExactCountNfaStrings(a, n).MoveValue();
  auto cb = ExactCountNfaStrings(b, n).MoveValue();
  auto cu = ExactCountNfaStrings(UnionNfa(a, b), n).MoveValue();
  auto ci = ExactCountNfaStrings(IntersectNfa(a, b), n).MoveValue();
  // |A| + |B| = |A ∪ B| + |A ∩ B|.
  EXPECT_EQ(ca.Add(cb).Compare(cu.Add(ci)), 0) << "seed=" << GetParam();
}

TEST_P(NfaAlgebraSweep, ReversalPreservesCounts) {
  Rng rng(GetParam() + 500);
  Nfa a = RandomNfa(&rng, 4, 2, 8);
  const size_t n = 4;
  auto forward = ExactCountNfaStrings(a, n).MoveValue();
  auto backward = ExactCountNfaStrings(ReverseNfa(a), n).MoveValue();
  EXPECT_EQ(forward.Compare(backward), 0) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, NfaAlgebraSweep,
                         ::testing::Range<uint64_t>(1, 21));

TEST(NfaOpsTest, IntersectionOfDisjointLanguagesIsEmpty) {
  // L(a) = {0^n}, L(b) = {1^n}.
  Nfa zeros;
  StateId z = zeros.AddState();
  zeros.MarkInitial(z);
  zeros.MarkAccepting(z);
  zeros.AddTransition(z, 0, z);
  Nfa ones;
  StateId o = ones.AddState();
  ones.MarkInitial(o);
  ones.MarkAccepting(o);
  ones.AddTransition(o, 1, o);
  Nfa both = IntersectNfa(zeros, ones);
  EXPECT_EQ(ExactCountNfaStrings(both, 3)->ToDecimalString(), "0");
  // Length 0: the empty string is in both.
  EXPECT_EQ(ExactCountNfaStrings(both, 0)->ToDecimalString(), "1");
}

// Several initial states, some of them accepting, over 1–2 symbols: the
// shapes that exercise the encoding's leaves and root edges.
Nfa RandomMultiInitialNfa(Rng* rng) {
  const size_t states = 2 + rng->NextBounded(5);
  const size_t alphabet = 1 + rng->NextBounded(2);
  Nfa nfa;
  for (size_t i = 0; i < states; ++i) nfa.AddState();
  nfa.EnsureAlphabetSize(alphabet);
  for (size_t i = 0; i < 1 + states / 2; ++i) {
    const StateId s = static_cast<StateId>(rng->NextBounded(states));
    nfa.MarkInitial(s);
    if (rng->NextBounded(2) == 0) nfa.MarkAccepting(s);
  }
  nfa.MarkAccepting(static_cast<StateId>(rng->NextBounded(states)));
  const size_t transitions = 3 + rng->NextBounded(3 * states);
  for (size_t i = 0; i < transitions; ++i) {
    nfa.AddTransition(static_cast<StateId>(rng->NextBounded(states)),
                      static_cast<SymbolId>(rng->NextBounded(alphabet)),
                      static_cast<StateId>(rng->NextBounded(states)));
  }
  return nfa;
}

TEST(UnaryNftaTest, TreesCountTheStrings) {
  Rng rng(0x0a7);
  for (int round = 0; round < 40; ++round) {
    const Nfa a = RandomMultiInitialNfa(&rng);
    const Nfta t = UnaryNfta(a);
    for (size_t n = 1; n <= 6; ++n) {
      auto strings = ExactCountNfaStrings(a, n);
      auto trees = ExactCountNftaTrees(t, n);
      ASSERT_TRUE(strings.ok() && trees.ok());
      EXPECT_EQ(trees->ToDecimalString(), strings->ToDecimalString())
          << "round " << round << " n " << n << "\n"
          << a.DebugString();
    }
  }
}

// CountNFA is CountNFTA on the trimmed automaton's encoding: same draws,
// same estimate, same stats.
TEST(UnaryNftaTest, CountNfaIsTheTreeCounterOnTheEncoding) {
  Rng rng(0x0a8);
  uint64_t attempts = 0;
  for (int round = 0; round < 12; ++round) {
    const Nfa a = RandomMultiInitialNfa(&rng);
    Nfa trimmed = a;
    trimmed.Trim();
    const Nfta t = UnaryNfta(trimmed);
    const size_t n = 1 + rng.NextBounded(6);
    for (uint64_t seed : {1, 2, 3}) {
      EstimatorConfig cfg;
      cfg.epsilon = 0.3;
      cfg.seed = seed;
      cfg.pool_size = 48;
      auto strings = CountNfaStrings(a, n, cfg);
      auto trees = CountNftaTrees(t, n, cfg);
      ASSERT_TRUE(strings.ok() && trees.ok());
      const std::string where =
          "round " + std::to_string(round) + " seed " + std::to_string(seed);
      EXPECT_EQ(strings->value.ToString(), trees->value.ToString()) << where;
      EXPECT_EQ(strings->value.Log2(), trees->value.Log2()) << where;
      EXPECT_EQ(strings->stats.ToString(), trees->stats.ToString()) << where;
      attempts += strings->stats.attempts;
    }
  }
  EXPECT_GT(attempts, 0u) << "no Karp–Luby group ran";
}

TEST(NftaOpsTest, UnionCountsMatchInclusionExclusion) {
  // A accepts the single leaf 'x'; B accepts leaves 'x' and 'y'.
  Nfta a;
  StateId qa = a.AddState();
  a.SetInitialState(qa);
  a.AddTransition(qa, 0, {});
  Nfta b;
  StateId qb = b.AddState();
  b.SetInitialState(qb);
  b.AddTransition(qb, 0, {});
  b.AddTransition(qb, 1, {});
  auto u = UnionNfta(a, b).MoveValue();
  // Union language at size 1: {x, y} → 2 trees, overlap counted once.
  EXPECT_EQ(ExactCountNftaTrees(u, 1)->ToDecimalString(), "2");
}

TEST(NftaOpsTest, UnionRejectsLambda) {
  Nfta a;
  StateId q = a.AddState();
  StateId r = a.AddState();
  a.SetInitialState(q);
  a.AddTransition(q, Nfta::kLambdaSymbol, {r});
  Nfta b;
  StateId qb = b.AddState();
  b.SetInitialState(qb);
  b.AddTransition(qb, 0, {});
  EXPECT_FALSE(UnionNfta(a, b).ok());
}

TEST(NftaOpsTest, UnionPreservesDeepTrees) {
  // A: unary chain x(x(x...)); B: leaf y. Union accepts both shapes.
  Nfta a;
  StateId q = a.AddState();
  a.SetInitialState(q);
  a.AddTransition(q, 0, {q});
  a.AddTransition(q, 0, {});
  Nfta b;
  StateId qb = b.AddState();
  b.SetInitialState(qb);
  b.AddTransition(qb, 1, {});
  auto u = UnionNfta(a, b).MoveValue();
  EXPECT_EQ(ExactCountNftaTrees(u, 3)->ToDecimalString(), "1");  // x-chain
  EXPECT_EQ(ExactCountNftaTrees(u, 1)->ToDecimalString(), "2");  // x or y
}

}  // namespace
}  // namespace pqe
