// Tests for the counting-core hot path (docs/performance.md): the reusable
// WeightedPicker must be draw-identical to the one-shot PickWeightedIndex,
// the CSR-flattened automata accessors must agree with a naive recomputation
// of the old per-object layouts, Nfta copies must rebase their child-arena
// spans, both counters must reproduce a pinned table of estimates and stats
// (generated where the exact tier was checked against the legacy
// materialize-and-simulate membership oracle) over dozens of randomized
// automata in both kernel modes, and median-of-R must merge every stats
// field of its repetitions.

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "automata/nfa.h"
#include "automata/nfta.h"
#include "counting/count_nfa.h"
#include "counting/count_nfta.h"
#include "counting/exact.h"
#include "counting/weighted_pick.h"
#include "util/extfloat.h"
#include "util/rng.h"

namespace pqe {
namespace {

// --- WeightedPicker ------------------------------------------------------

TEST(WeightedPickerTest, DrawIdenticalToPickWeightedIndex) {
  // Mixed-magnitude weights (spread over hundreds of binary orders): both
  // samplers renormalize by the max, so the scaled tables must match.
  Rng setup(0x12345);
  for (int round = 0; round < 50; ++round) {
    const size_t n = 1 + setup.NextBounded(12);
    std::vector<ExtFloat> weights(n);
    bool any_nonzero = false;
    for (size_t i = 0; i < n; ++i) {
      if (setup.NextBounded(5) == 0) continue;  // leave some weights zero
      ExtFloat w = ExtFloat::FromUint64(1 + setup.NextBounded(1000));
      // Push some weights far up/down the exponent range.
      const size_t boosts = setup.NextBounded(4);
      for (size_t b = 0; b < boosts; ++b) {
        w = setup.NextBounded(2) == 0 ? w.Mul(w) : w.Scale(1e-30);
      }
      weights[i] = w;
      any_nonzero = true;
    }
    if (!any_nonzero) weights[0] = ExtFloat::FromUint64(7);
    WeightedPicker picker(weights);
    // Same seed → same NextDouble stream → the indices must coincide draw
    // for draw.
    Rng rng_a(round * 31 + 1);
    Rng rng_b(round * 31 + 1);
    for (int draw = 0; draw < 200; ++draw) {
      ASSERT_EQ(picker.Pick(&rng_a), PickWeightedIndex(&rng_b, weights))
          << "round=" << round << " draw=" << draw;
    }
  }
}

TEST(WeightedPickerTest, SingleElement) {
  WeightedPicker picker(std::vector<ExtFloat>{ExtFloat::FromUint64(5)});
  Rng rng(1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(picker.Pick(&rng), 0u);
}

TEST(WeightedPickerTest, ZeroWeightsNeverPicked) {
  std::vector<ExtFloat> weights(5);
  weights[1] = ExtFloat::FromUint64(3);
  weights[3] = ExtFloat::FromUint64(1);
  WeightedPicker picker(weights);
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const size_t pick = picker.Pick(&rng);
    EXPECT_TRUE(pick == 1 || pick == 3);
  }
}

TEST(WeightedPickerTest, ChiSquaredSanity) {
  // Empirical frequencies of a 4-point distribution must match the weight
  // proportions. χ² with 3 degrees of freedom: P(X > 16.27) = 0.001.
  const std::vector<uint64_t> raw = {1, 2, 3, 10};
  std::vector<ExtFloat> weights;
  for (uint64_t w : raw) weights.push_back(ExtFloat::FromUint64(w));
  WeightedPicker picker(weights);
  Rng rng(0xc41);
  const size_t kDraws = 40000;
  std::vector<size_t> counts(raw.size(), 0);
  for (size_t i = 0; i < kDraws; ++i) ++counts[picker.Pick(&rng)];
  const double total = 16.0;
  double chi2 = 0.0;
  for (size_t i = 0; i < raw.size(); ++i) {
    const double expected = kDraws * static_cast<double>(raw[i]) / total;
    const double d = static_cast<double>(counts[i]) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 16.27) << "draw frequencies off: " << counts[0] << " "
                         << counts[1] << " " << counts[2] << " " << counts[3];
}

TEST(WeightedPickerTest, TryBuildRejectsEmptyAndAllZero) {
  WeightedPicker picker;
  Status empty = picker.TryBuild({}, "stratum 3 in-group");
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty.message().find("stratum 3 in-group"), std::string::npos);
  EXPECT_NE(empty.message().find("empty weight table"), std::string::npos);
  EXPECT_TRUE(picker.empty());

  Status zeros = picker.TryBuild(std::vector<ExtFloat>(4),
                                 "mixture group table");
  EXPECT_EQ(zeros.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(zeros.message().find("mixture group table"), std::string::npos);
  EXPECT_NE(zeros.message().find("all 4 weights are zero"),
            std::string::npos);
  EXPECT_TRUE(picker.empty());

  // A good build after a failed one works and clears the error state.
  EXPECT_TRUE(picker
                  .TryBuild({ExtFloat::FromUint64(2)}, "retry")
                  .ok());
  EXPECT_EQ(picker.size(), 1u);
}

TEST(AliasPickerTest, TryBuildRejectsEmptyAndAllZero) {
  AliasPicker picker;
  Status empty = picker.TryBuild({}, "clause table");
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty.message().find("clause table"), std::string::npos);

  Status zeros = picker.TryBuild(std::vector<ExtFloat>(7), "tau group");
  EXPECT_EQ(zeros.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(zeros.message().find("all 7 weights are zero"),
            std::string::npos);
  EXPECT_TRUE(picker.empty());
}

// χ² of AliasPicker draw frequencies against the weight proportions. With
// k−1 degrees of freedom the 0.001 critical value is ≈ df + 4·√(2·df) for
// the table sizes used here; a fixed seed keeps the check deterministic.
double AliasChi2(const std::vector<uint64_t>& raw, size_t draws,
                 uint64_t seed) {
  std::vector<ExtFloat> weights;
  double total = 0.0;
  for (uint64_t w : raw) {
    weights.push_back(ExtFloat::FromUint64(w));
    total += static_cast<double>(w);
  }
  AliasPicker picker(weights);
  Rng rng(seed);
  std::vector<size_t> counts(raw.size(), 0);
  for (size_t i = 0; i < draws; ++i) ++counts[picker.Pick(&rng)];
  double chi2 = 0.0;
  for (size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == 0) {
      EXPECT_EQ(counts[i], 0u) << "zero-weight index " << i << " drawn";
      continue;
    }
    const double expected = draws * static_cast<double>(raw[i]) / total;
    const double d = static_cast<double>(counts[i]) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

TEST(AliasPickerTest, ChiSquaredMatchesProportions) {
  // 3 df: P(X > 16.27) = 0.001.
  EXPECT_LT(AliasChi2({1, 2, 3, 10}, 40000, 0xa11a5), 16.27);
}

TEST(AliasPickerTest, SingleNonzeroColumn) {
  // Degenerate table: only index 2 can ever come back, zero columns never.
  EXPECT_LT(AliasChi2({0, 0, 5, 0}, 5000, 0x51), 1e-9);
}

TEST(AliasPickerTest, AllEqualWeights) {
  // 7 df: P(X > 24.32) = 0.001.
  EXPECT_LT(AliasChi2({3, 3, 3, 3, 3, 3, 3, 3}, 80000, 0xe0), 24.32);
}

TEST(AliasPickerTest, MillionToOneSkew) {
  // Expected rare-index count is ~2 over 2M draws — too thin for χ², so
  // bound the rare count directly (Poisson(2): P(X > 30) is astronomically
  // small) and require the heavy column to absorb the rest.
  std::vector<ExtFloat> weights = {ExtFloat::FromUint64(1000000),
                                   ExtFloat::FromUint64(1)};
  AliasPicker picker(weights);
  Rng rng(0x5e3);
  const size_t kDraws = 2000000;
  size_t rare = 0;
  for (size_t i = 0; i < kDraws; ++i) {
    const size_t pick = picker.Pick(&rng);
    ASSERT_LT(pick, 2u);
    if (pick == 1) ++rare;
  }
  EXPECT_GT(rare, 0u);
  EXPECT_LE(rare, 30u);
}

TEST(AliasPickerTest, LargeTable) {
  // > 10⁴ entries with uniform weights; 64 draws per column on average.
  // df = 16383: critical ≈ df + 4·√(2·df) ≈ 17107.
  const size_t n = 16384;
  std::vector<uint64_t> raw(n, 1);
  EXPECT_LT(AliasChi2(raw, n * 64, 0xb16), 17107.0);
}

TEST(AliasPickerTest, ExtremeExponentsRenormalized) {
  // Weights hundreds of binary orders apart must not overflow the doubles
  // in the table: the dominant weight takes essentially all draws.
  ExtFloat huge = ExtFloat::FromUint64(1000);
  for (int i = 0; i < 40; ++i) huge = huge.Mul(huge);  // ~2^(10240)
  std::vector<ExtFloat> weights = {ExtFloat::FromUint64(3), huge};
  AliasPicker picker(weights);
  Rng rng(0xd0e);
  for (int i = 0; i < 2000; ++i) ASSERT_EQ(picker.Pick(&rng), 1u);
}

TEST(IndexDrawerTest, CachedModeDrawIdenticalAndCounted) {
  std::vector<ExtFloat> weights = {ExtFloat::FromUint64(5),
                                   ExtFloat::FromUint64(1)};
  CountStats stats;
  IndexDrawer drawer;
  drawer.Prepare(IndexDrawer::Mode::kCached, weights, &stats);
  EXPECT_EQ(stats.picker_builds, 1u);
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(drawer.Draw(&a), PickWeightedIndex(&b, weights));
  }
}

TEST(IndexDrawerTest, AliasModeCountsBuildsAndRespectsSupport) {
  std::vector<ExtFloat> weights(3);
  weights[1] = ExtFloat::FromUint64(9);
  CountStats stats;
  IndexDrawer drawer;
  drawer.Prepare(IndexDrawer::Mode::kAlias, weights, &stats);
  EXPECT_EQ(stats.alias_builds, 1u);
  EXPECT_EQ(stats.picker_builds, 0u);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) ASSERT_EQ(drawer.Draw(&rng), 1u);
}

TEST(WeightedPickerTest, RebuildReuses) {
  WeightedPicker picker;
  picker.Build({ExtFloat::FromUint64(1), ExtFloat::FromUint64(1)});
  EXPECT_EQ(picker.size(), 2u);
  picker.Build({ExtFloat::FromUint64(4)});
  EXPECT_EQ(picker.size(), 1u);
  Rng rng(5);
  EXPECT_EQ(picker.Pick(&rng), 0u);
}

// --- CSR accessor equivalence --------------------------------------------

Nfa RandomNfa(Rng* rng, size_t states, size_t alphabet, size_t transitions) {
  Nfa a;
  for (size_t i = 0; i < states; ++i) a.AddState();
  a.EnsureAlphabetSize(alphabet);
  a.MarkInitial(0);
  for (size_t i = 0; i < transitions; ++i) {
    a.AddTransition(static_cast<StateId>(rng->NextBounded(states)),
                    static_cast<SymbolId>(rng->NextBounded(alphabet)),
                    static_cast<StateId>(rng->NextBounded(states)));
  }
  for (size_t i = 0; i < 1 + states / 3; ++i) {
    a.MarkInitial(static_cast<StateId>(rng->NextBounded(states)));
    a.MarkAccepting(static_cast<StateId>(rng->NextBounded(states)));
  }
  return a;
}

Nfta RandomNfta(Rng* rng, size_t states, size_t alphabet,
                size_t transitions) {
  Nfta t;
  for (size_t i = 0; i < states; ++i) t.AddState();
  t.EnsureAlphabetSize(alphabet);
  t.SetInitialState(0);
  for (size_t q = 0; q < states; ++q) {
    t.AddTransition(static_cast<StateId>(q),
                    static_cast<SymbolId>(rng->NextBounded(alphabet)), {});
  }
  for (size_t i = 0; i < transitions; ++i) {
    const size_t arity = 1 + rng->NextBounded(3);
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

TEST(CsrEquivalenceTest, NfaAdjacencyMatchesNaive) {
  Rng rng(0xabc);
  for (int round = 0; round < 25; ++round) {
    const size_t S = 2 + rng.NextBounded(8);
    Nfa a = RandomNfa(&rng, S, 2 + rng.NextBounded(3),
                      3 + rng.NextBounded(20));
    for (StateId s = 0; s < S; ++s) {
      std::vector<uint32_t> out_naive, in_naive;
      for (uint32_t i = 0; i < a.transitions().size(); ++i) {
        if (a.transitions()[i].from == s) out_naive.push_back(i);
        if (a.transitions()[i].to == s) in_naive.push_back(i);
      }
      EXPECT_TRUE(a.OutTransitions(s) == out_naive) << "state " << s;
      EXPECT_TRUE(a.InTransitions(s) == in_naive) << "state " << s;
    }
  }
}

TEST(CsrEquivalenceTest, NftaIndexesMatchNaive) {
  Rng rng(0xdef);
  for (int round = 0; round < 25; ++round) {
    const size_t S = 2 + rng.NextBounded(8);
    const size_t A = 2 + rng.NextBounded(3);
    Nfta t = RandomNfta(&rng, S, A, 3 + rng.NextBounded(20));
    const auto& trans = t.transitions();
    for (StateId s = 0; s < S; ++s) {
      std::vector<uint32_t> naive;
      for (uint32_t i = 0; i < trans.size(); ++i) {
        if (trans[i].from == s) naive.push_back(i);
      }
      EXPECT_TRUE(t.OutTransitions(s) == naive) << "state " << s;
    }
    for (SymbolId sym = 0; sym < A; ++sym) {
      std::vector<uint32_t> by_symbol, leaves;
      for (uint32_t i = 0; i < trans.size(); ++i) {
        if (trans[i].symbol != sym) continue;
        by_symbol.push_back(i);
        if (trans[i].children.empty()) leaves.push_back(i);
      }
      EXPECT_TRUE(t.TransitionsWithSymbol(sym) == by_symbol)
          << "symbol " << sym;
      EXPECT_TRUE(t.LeafTransitions(sym) == leaves) << "symbol " << sym;
      for (StateId c0 = 0; c0 < S; ++c0) {
        std::vector<uint32_t> nonleaf;
        for (uint32_t i = 0; i < trans.size(); ++i) {
          if (trans[i].symbol == sym && !trans[i].children.empty() &&
              trans[i].children[0] == c0) {
            nonleaf.push_back(i);
          }
        }
        EXPECT_TRUE(t.TransitionsWithSymbolChild0(sym, c0) == nonleaf)
            << "symbol " << sym << " child0 " << c0;
      }
    }
  }
}

TEST(CsrEquivalenceTest, NftaCopyRebasesChildren) {
  Rng rng(7);
  Nfta original = RandomNfta(&rng, 5, 2, 12);
  std::vector<std::vector<StateId>> expected;
  for (const Nfta::Transition& t : original.transitions()) {
    expected.push_back(t.children.ToVector());
  }
  Nfta copy = original;
  // Mutating (and reallocating) the original's arena must not disturb the
  // copy's spans.
  for (int i = 0; i < 50; ++i) {
    original.AddTransition(0, 0, {1, 2, 3, 4, 0, 1, 2});
  }
  ASSERT_EQ(copy.NumTransitions(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(copy.transitions()[i].children == expected[i]) << "t " << i;
  }
  // And the copy's own growth must rebase its (independent) arena.
  copy.AddTransition(1, 1, {0, 0, 0, 0, 0, 0, 0, 0});
  EXPECT_TRUE(copy.transitions()[0].children == expected[0]);
}

TEST(CsrEquivalenceTest, NftaSelfAliasedAddTransition) {
  // Feeding a transition's own children span back into AddTransitionView
  // must copy before the arena reallocates under it.
  Nfta t;
  StateId q = t.AddState();
  t.SetInitialState(q);
  t.AddTransition(q, 0, {q, q, q});
  for (int i = 0; i < 40; ++i) {
    t.AddTransitionView(q, 1, t.transitions()[0].children);
  }
  for (const Nfta::Transition& tr : t.transitions()) {
    ASSERT_EQ(tr.children.size(), 3u);
    for (StateId c : tr.children) EXPECT_EQ(c, q);
  }
}

// --- Pinned counter answers ----------------------------------------------

// One pinned counter run: the estimate's ExtFloat::ToString() and every
// CountStats field, in PQE_COUNT_STATS_FIELDS order. The tables below were
// generated at a commit that still carried the legacy hot path
// (materialize-then-simulate membership, per-draw PickWeightedIndex), where
// the generator also asserted that each exact-tier run equals its legacy
// run. Reproducing the exact rows therefore shows the exact tier still
// equals the legacy tier, draw for draw; the fast rows pin the fast tier's
// draws through the same membership oracle. A divergent membership answer
// anywhere changes the acceptance counts, so this is also the memo
// correctness test. A new CountStats field must be added to the rows.
struct PinnedRun {
  const char* value;
  uint64_t stats[internal::kCountStatsFieldCount];
};

constexpr KernelMode kBothModes[] = {KernelMode::kExact, KernelMode::kFast};

EstimatorConfig HotpathConfig(uint64_t seed, KernelMode mode) {
  EstimatorConfig cfg;
  cfg.epsilon = 0.3;
  cfg.seed = seed;
  cfg.pool_size = 48;
  cfg.kernel_mode = mode;
  return cfg;
}

void ExpectPinned(const Result<CountEstimate>& got, const PinnedRun& want,
                  const std::string& where) {
  ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
  EXPECT_EQ(got->value.ToString(), want.value) << where;
  size_t i = 0;
  got->stats.ForEachField([&](const char* name, uint64_t value) {
    EXPECT_EQ(value, want.stats[i++]) << where << " field " << name;
  });
}

std::string Where(uint64_t seed, KernelMode mode) {
  return "seed " + std::to_string(seed) + " kernels " +
         KernelModeToString(mode);
}

const PinnedRun kNftaRandomRuns[] = {
    // seed 1: exact, fast
    {"0", {70, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"0", {70, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 2: exact, fast
    {"18", {104, 30, 1440, 0, 0, 0, 0, 4, 0, 0, 0, 0}},
    {"18", {104, 30, 1440, 0, 0, 0, 0, 0, 4, 30, 0, 0}},
    // seed 3: exact, fast
    {"0", {58, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"0", {58, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 4: exact, fast
    {"0", {127, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"0", {127, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 5: exact, fast
    {"0", {129, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"0", {129, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 6: exact, fast
    {"44", {196, 50, 2400, 240, 240, 0, 240, 14, 0, 0, 448, 252}},
    {"44", {196, 50, 2400, 1280, 1280, 0, 1280, 0, 14, 55, 2531, 354}},
    // seed 7: exact, fast
    {"0", {211, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"0", {211, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 8: exact, fast
    {"11", {135, 43, 2064, 240, 240, 0, 240, 9, 0, 0, 301, 238}},
    {"11", {135, 43, 2064, 1280, 1280, 0, 1280, 0, 9, 48, 1840, 409}},
    // seed 9: exact, fast
    {"8", {114, 25, 1200, 54, 48, 0, 54, 5, 0, 0, 132, 136}},
    {"8.08594", {114, 25, 1200, 256, 230, 0, 256, 0, 5, 26, 736, 176}},
    // seed 10: exact, fast
    {"4", {189, 19, 912, 48, 48, 0, 48, 2, 0, 0, 56, 88}},
    {"4", {189, 19, 912, 256, 256, 0, 256, 0, 2, 20, 619, 149}},
    // seed 11: exact, fast
    {"31.6", {259, 63, 3024, 320, 288, 0, 320, 17, 0, 0, 554, 287}},
    {"31.0703", {259, 63, 3024, 1536, 1411, 0, 1536, 0, 17, 69, 3212, 428}},
    // seed 12: exact, fast
    {"4", {170, 24, 1152, 0, 0, 0, 0, 3, 0, 0, 0, 0}},
    {"4", {170, 24, 1152, 0, 0, 0, 0, 0, 3, 24, 0, 0}},
    // seed 13: exact, fast
    {"0", {84, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"0", {84, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 14: exact, fast
    {"1", {80, 11, 528, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"1", {80, 11, 528, 0, 0, 0, 0, 0, 0, 11, 0, 0}},
    // seed 15: exact, fast
    {"1.96", {94, 10, 480, 100, 48, 0, 100, 2, 0, 0, 140, 60}},
    {"2", {94, 10, 480, 256, 128, 0, 256, 0, 2, 11, 440, 72}},
    // seed 16: exact, fast
    {"1", {142, 15, 720, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"1", {142, 15, 720, 0, 0, 0, 0, 0, 0, 15, 0, 0}},
    // seed 17: exact, fast
    {"6.36158", {136, 21, 1008, 132, 96, 0, 132, 3, 0, 0, 94, 130}},
    {"5.45273", {136, 21, 1008, 512, 345, 0, 512, 0, 3, 23, 522, 210}},
    // seed 18: exact, fast
    {"142.508", {172, 72, 3456, 750, 576, 0, 750, 29, 0, 0, 1039, 280}},
    {"119.752", {172, 72, 3456, 3072, 2369, 0, 3072, 0, 29, 84, 4323, 335}},
    // seed 19: exact, fast
    {"13.2262", {125, 43, 2064, 177, 96, 0, 177, 11, 0, 0, 284, 108}},
    {"12.8594", {125, 43, 2064, 512, 246, 0, 512, 0, 11, 45, 941, 121}},
    // seed 20: exact, fast
    {"4", {186, 18, 864, 96, 96, 0, 96, 3, 0, 0, 125, 135}},
    {"4", {186, 18, 864, 512, 512, 0, 512, 0, 3, 20, 915, 204}},
    // seed 21: exact, fast
    {"210.396", {158, 83, 3984, 1042, 768, 0, 1042, 47, 0, 0, 1541, 444}},
    {"185.023", {158, 83, 3984, 4096, 3144, 0, 4096, 0, 47, 99, 6664, 512}},
    // seed 22: exact, fast
    {"2", {56, 13, 624, 96, 48, 0, 96, 2, 0, 0, 61, 35}},
    {"2.00781", {56, 13, 624, 256, 129, 0, 256, 0, 2, 14, 216, 40}},
    // seed 23: exact, fast
    {"12", {68, 19, 912, 48, 48, 0, 48, 6, 0, 0, 87, 96}},
    {"12", {68, 19, 912, 256, 256, 0, 256, 0, 6, 20, 598, 130}},
    // seed 24: exact, fast
    {"24", {110, 46, 2208, 96, 96, 0, 96, 14, 0, 0, 200, 143}},
    {"24", {110, 46, 2208, 512, 512, 0, 512, 0, 14, 48, 1320, 225}},
    // seed 25: exact, fast
    {"0", {50, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"0", {50, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 26: exact, fast
    {"30.7273", {211, 58, 2784, 295, 288, 0, 295, 13, 0, 0, 470, 340}},
    {"30.0469", {211, 58, 2784, 1536, 1486, 0, 1536, 0, 13, 64, 2993, 481}},
    // seed 27: exact, fast
    {"0", {175, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"0", {175, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 28: exact, fast
    {"1", {57, 7, 336, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"1", {57, 7, 336, 0, 0, 0, 0, 0, 0, 7, 0, 0}},
    // seed 29: exact, fast
    {"3", {111, 14, 672, 0, 0, 0, 0, 2, 0, 0, 0, 0}},
    {"3", {111, 14, 672, 0, 0, 0, 0, 0, 2, 14, 0, 0}},
    // seed 30: exact, fast
    {"2442.41", {160, 103, 4944, 1643, 1152, 0, 1643, 60, 0, 0, 2177, 514}},
    {"2450.05", {160, 103, 4944, 6144, 4692, 0, 6144, 0, 60, 127, 8358, 607}},
};

const PinnedRun kNftaAmbiguousRuns[] = {
    // seed 1: exact, fast
    {"125.346", {109, 26, 1248, 507, 336, 0, 507, 8, 0, 0, 1112, 282}},
    {"154.04", {109, 26, 1248, 1792, 1228, 0, 1792, 0, 8, 33, 3715, 329}},
    // seed 2: exact, fast
    {"179.411", {109, 26, 1248, 482, 336, 0, 482, 8, 0, 0, 1055, 271}},
    {"134.927", {109, 26, 1248, 1792, 1204, 0, 1792, 0, 8, 33, 3713, 343}},
    // seed 3: exact, fast
    {"145.183", {109, 26, 1248, 497, 336, 0, 497, 8, 0, 0, 1083, 283}},
    {"111.801", {109, 26, 1248, 1792, 1173, 0, 1792, 0, 8, 33, 3720, 342}},
    // seed 4: exact, fast
    {"148.491", {109, 26, 1248, 495, 336, 0, 495, 8, 0, 0, 1096, 270}},
    {"148.402", {109, 26, 1248, 1792, 1221, 0, 1792, 0, 8, 33, 3725, 341}},
    // seed 5: exact, fast
    {"165.757", {109, 26, 1248, 486, 336, 0, 486, 8, 0, 0, 1059, 269}},
    {"108.131", {109, 26, 1248, 1792, 1167, 0, 1792, 0, 8, 33, 3727, 347}},
};

const PinnedRun kNfaRandomRuns[] = {
    // seed 1: exact, fast
    {"156.21", {16, 15, 624, 4406, 912, 0, 4406, 32, 0, 0, 4404, 568}},
    {"148.986", {16, 15, 624, 6400, 1312, 0, 6400, 0, 32, 38, 6398, 571}},
    // seed 2: exact, fast
    {"6.62027", {35, 21, 816, 553, 288, 0, 553, 9, 0, 0, 549, 378}},
    {"6.82731", {35, 21, 816, 1536, 926, 0, 1536, 0, 9, 23, 1532, 611}},
    // seed 3: exact, fast
    {"0", {18, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"0", {18, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 4: exact, fast
    {"1", {48, 8, 336, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"1", {48, 8, 336, 0, 0, 0, 0, 0, 0, 7, 0, 0}},
    // seed 5: exact, fast
    {"150.217", {45, 35, 1584, 800, 576, 0, 800, 34, 0, 0, 798, 827}},
    {"137.707", {45, 35, 1584, 3072, 2201, 0, 3072, 0, 34, 45, 3070, 1197}},
    // seed 6: exact, fast
    {"2", {28, 14, 576, 48, 48, 0, 48, 1, 0, 0, 46, 162}},
    {"2", {28, 14, 576, 256, 256, 0, 256, 0, 1, 13, 254, 280}},
    // seed 7: exact, fast
    {"31.4954", {18, 17, 672, 4418, 1392, 0, 4418, 43, 0, 0, 4415, 633}},
    {"32.3199", {18, 17, 672, 8960, 3442, 0, 8960, 0, 43, 49, 8957, 669}},
    // seed 8: exact, fast
    {"24.3539", {15, 14, 528, 3284, 912, 0, 3284, 30, 0, 0, 3281, 442}},
    {"16.3194", {15, 14, 528, 5120, 1573, 0, 5120, 0, 30, 31, 5117, 496}},
    // seed 9: exact, fast
    {"0", {21, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"0", {21, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 10: exact, fast
    {"295.37", {36, 32, 1440, 4972, 1968, 0, 4972, 68, 0, 0, 4970, 1278}},
    {"281.952", {36, 32, 1440, 10496, 4610, 0, 10496, 0, 68, 71, 10494, 1384}},
    // seed 11: exact, fast
    {"13.127", {10, 8, 336, 1772, 576, 0, 1772, 19, 0, 0, 1771, 287}},
    {"16.7678", {10, 8, 336, 3072, 1131, 0, 3072, 0, 19, 19, 3071, 289}},
    // seed 12: exact, fast
    {"34.5869", {30, 24, 1008, 1410, 768, 0, 1410, 30, 0, 0, 1407, 632}},
    {"31.9034", {30, 24, 1008, 4096, 2630, 0, 4096, 0, 30, 37, 4093, 807}},
    // seed 13: exact, fast
    {"0", {42, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"0", {42, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 14: exact, fast
    {"77.8225", {28, 23, 1008, 3248, 1200, 0, 3248, 43, 0, 0, 3246, 856}},
    {"67.9369", {28, 23, 1008, 6912, 2886, 0, 6912, 0, 43, 48, 6910, 930}},
    // seed 15: exact, fast
    {"0.925329", {14, 13, 528, 1078, 528, 0, 1078, 11, 0, 0, 1076, 363}},
    {"1.12767", {14, 13, 528, 2816, 1427, 0, 2816, 0, 11, 22, 2814, 462}},
    // seed 16: exact, fast
    {"5.9799", {49, 23, 960, 797, 432, 0, 797, 14, 0, 0, 794, 515}},
    {"6.05298", {49, 23, 960, 2304, 1337, 0, 2304, 0, 14, 29, 2301, 793}},
    // seed 17: exact, fast
    {"0.995824", {12, 11, 432, 1861, 432, 0, 1861, 9, 0, 0, 1859, 371}},
    {"1.36849", {12, 11, 432, 3072, 841, 0, 3072, 0, 9, 21, 3070, 374}},
    // seed 18: exact, fast
    {"1", {54, 9, 384, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"1", {54, 9, 384, 0, 0, 0, 0, 0, 0, 8, 0, 0}},
    // seed 19: exact, fast
    {"0", {18, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"0", {18, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 20: exact, fast
    {"8.42105", {20, 10, 432, 153, 144, 0, 153, 5, 0, 0, 152, 166}},
    {"8.94531", {20, 10, 432, 768, 741, 0, 768, 0, 5, 12, 767, 324}},
    // seed 21: exact, fast
    {"1.07432", {12, 10, 432, 3061, 432, 0, 3061, 9, 0, 0, 3060, 376}},
    {"1.22917", {12, 10, 432, 3840, 580, 0, 3840, 0, 9, 24, 3839, 383}},
    // seed 22: exact, fast
    {"1.05495", {63, 10, 432, 91, 48, 0, 91, 1, 0, 0, 90, 199}},
    {"0.96875", {63, 10, 432, 256, 124, 0, 256, 0, 1, 10, 255, 232}},
    // seed 23: exact, fast
    {"0.704612", {36, 17, 672, 1565, 528, 0, 1565, 11, 0, 0, 1562, 534}},
    {"0.931677", {36, 17, 672, 2816, 1126, 0, 2816, 0, 11, 25, 2813, 641}},
    // seed 24: exact, fast
    {"4.05814", {42, 16, 624, 326, 240, 0, 326, 6, 0, 0, 323, 255}},
    {"3.78076", {42, 16, 624, 1280, 1017, 0, 1280, 0, 6, 18, 1277, 484}},
    // seed 25: exact, fast
    {"1", {42, 6, 240, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"1", {42, 6, 240, 0, 0, 0, 0, 0, 0, 5, 0, 0}},
};

const PinnedRun kMedianOfRRuns[] = {
    // seed 0xfeed, 5 reps: exact, fast
    {"67.9492", {95, 23, 5520, 2155, 1440, 0, 2155, 35, 0, 0, 4640, 1222}},
    {"65.1435", {95, 23, 5520, 7680, 5135, 0, 7680, 0, 35, 145, 15859, 1519}},
};

TEST(HotpathEquivalenceTest, CountNftaCachedMatchesLegacy) {
  Rng rng(0x9e1);
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Nfta t = RandomNfta(&rng, 2 + rng.NextBounded(5), 2,
                        4 + rng.NextBounded(12));
    const size_t n = 3 + rng.NextBounded(6);
    for (size_t m = 0; m < 2; ++m) {
      ExpectPinned(CountNftaTrees(t, n, HotpathConfig(seed, kBothModes[m])),
                   kNftaRandomRuns[2 * (seed - 1) + m],
                   Where(seed, kBothModes[m]));
    }
  }
}

// An automaton whose ambiguity survives size stratification: two same-symbol
// same-arity transitions out of the root state stay live at every size, so
// the Karp–Luby canonical-witness loop (and the run-state memo behind it)
// runs in every root stratum. The child languages overlap on the 0-leaf.
Nfta AmbiguousCombNfta() {
  Nfta t;
  StateId q0 = t.AddState();
  StateId a = t.AddState();
  StateId b = t.AddState();
  t.SetInitialState(q0);
  t.AddTransition(a, 0, {});
  t.AddTransition(b, 0, {});
  t.AddTransition(a, 1, {});
  t.AddTransition(q0, 2, {a, q0});
  t.AddTransition(q0, 2, {b, q0});
  t.AddTransition(q0, 0, {});
  return t;
}

TEST(HotpathEquivalenceTest, CountNftaAmbiguousAutomaton) {
  Nfta t = AmbiguousCombNfta();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (size_t m = 0; m < 2; ++m) {
      ExpectPinned(CountNftaTrees(t, 15, HotpathConfig(seed, kBothModes[m])),
                   kNftaAmbiguousRuns[2 * (seed - 1) + m],
                   Where(seed, kBothModes[m]));
    }
  }
}

TEST(HotpathEquivalenceTest, CountNfaCachedMatchesLegacy) {
  Rng rng(0x5ca1e);
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const size_t S = 2 + rng.NextBounded(6);
    // A small alphabet forces same-symbol in-transition groups (ambiguity).
    Nfa a = RandomNfa(&rng, S, 1 + rng.NextBounded(2),
                      4 + rng.NextBounded(16));
    const size_t n = 4 + rng.NextBounded(5);
    for (size_t m = 0; m < 2; ++m) {
      ExpectPinned(CountNfaStrings(a, n, HotpathConfig(seed, kBothModes[m])),
                   kNfaRandomRuns[2 * (seed - 1) + m],
                   Where(seed, kBothModes[m]));
    }
  }
}

TEST(HotpathEquivalenceTest, MedianOfRWithCaches) {
  // The parallel median-of-R path (with the run index warmed for the
  // workers), aggregated stats included.
  Nfta t = AmbiguousCombNfta();
  for (size_t m = 0; m < 2; ++m) {
    EstimatorConfig cfg = HotpathConfig(0xfeed, kBothModes[m]);
    cfg.repetitions = 5;
    cfg.num_threads = 4;
    ExpectPinned(CountNftaTrees(t, 13, cfg), kMedianOfRRuns[m],
                 Where(0xfeed, kBothModes[m]));
  }
}

// --- Median-of-R stats merge ----------------------------------------------

// The expected aggregate of independent repetitions, written from the
// field names alone: the strata counts describe the automaton and are
// identical across repetitions; every other field sums.
std::map<std::string, uint64_t> MergeByName(
    const std::vector<CountEstimate>& runs) {
  std::map<std::string, uint64_t> merged;
  for (const CountEstimate& run : runs) {
    run.stats.ForEachField([&](const char* name, uint64_t value) {
      const std::string field = name;
      if (field == "strata_total" || field == "strata_live") {
        EXPECT_TRUE(merged.count(field) == 0 || merged[field] == value)
            << field << " differs between repetitions";
        merged[field] = value;
      } else {
        merged[field] += value;
      }
    });
  }
  return merged;
}

template <typename Count>
void ExpectMedianOfRMergesEveryField(Count count, uint64_t seed,
                                     KernelMode mode) {
  constexpr size_t kReps = 3;
  EstimatorConfig cfg = HotpathConfig(seed, mode);
  std::vector<CountEstimate> singles;
  std::vector<std::string> values;
  for (size_t r = 0; r < kReps; ++r) {
    EstimatorConfig single = cfg;
    single.seed = Rng::DeriveSeed(seed, r);
    auto est = count(single);
    ASSERT_TRUE(est.ok());
    values.push_back(est->value.ToString());
    singles.push_back(est.MoveValue());
  }
  cfg.repetitions = kReps;
  auto median = count(cfg);
  ASSERT_TRUE(median.ok());
  const std::map<std::string, uint64_t> want = MergeByName(singles);
  size_t fields = 0;
  median->stats.ForEachField([&](const char* name, uint64_t value) {
    ++fields;
    ASSERT_EQ(want.count(name), 1u) << name;
    EXPECT_EQ(value, want.at(name)) << name << " " << KernelModeToString(mode);
  });
  EXPECT_EQ(fields, internal::kCountStatsFieldCount);
  EXPECT_GT(want.at("attempts"), 0u) << "no Karp–Luby work to merge";
  // The returned estimate is one of the repetitions' values (the median).
  EXPECT_NE(std::find(values.begin(), values.end(),
                      median->value.ToString()),
            values.end());
}

TEST(MedianOfRStatsTest, CountNftaMergesEveryField) {
  Nfta t = AmbiguousCombNfta();
  for (KernelMode mode : kBothModes) {
    ExpectMedianOfRMergesEveryField(
        [&](const EstimatorConfig& c) { return CountNftaTrees(t, 13, c); },
        0xa66, mode);
  }
}

TEST(MedianOfRStatsTest, CountNfaMergesEveryField) {
  // Two same-symbol in-transitions into state 1 from overlapping
  // predecessors: every length stratum runs the canonical-witness loop.
  Nfa a;
  for (int i = 0; i < 3; ++i) a.AddState();
  a.EnsureAlphabetSize(2);
  a.MarkInitial(0);
  a.MarkInitial(2);
  a.MarkAccepting(1);
  a.MarkAccepting(2);
  for (StateId from : {0u, 1u, 2u}) {
    a.AddTransition(from, 0, 1);
    a.AddTransition(from, 1, 2);
  }
  a.AddTransition(2, 0, 0);
  for (KernelMode mode : kBothModes) {
    ExpectMedianOfRMergesEveryField(
        [&](const EstimatorConfig& c) { return CountNfaStrings(a, 9, c); },
        0xa67, mode);
  }
}

TEST(HotpathEquivalenceTest, CachedEstimateTracksExactCount) {
  // Accuracy spot check: the cached estimator stays within a loose band of
  // the exact DP count on the ambiguous automaton (Catalan-like counts).
  Nfta t;
  StateId q = t.AddState();
  t.SetInitialState(q);
  t.AddTransition(q, 0, {q, q});
  t.AddTransition(q, 0, {});
  t.AddTransition(q, 1, {});
  const size_t n = 11;
  auto exact = ExactCountNftaTrees(t, n);
  ASSERT_TRUE(exact.ok());
  const double exact_log2 = ExtFloat::FromBigUint(*exact).Log2();
  EstimatorConfig cfg = HotpathConfig(0x7e57, KernelMode::kExact);
  cfg.pool_size = 96;
  auto est = CountNftaTrees(t, n, cfg);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est->value.Log2(), exact_log2, 0.6);
}

}  // namespace
}  // namespace pqe
