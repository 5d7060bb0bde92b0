// Tests for the counting-core hot path (docs/performance.md): AliasPicker
// must reject bad tables and draw the weight proportions, the CSR-flattened
// automata accessors must agree with a naive recomputation of the old
// per-object layouts, Nfta copies must rebase their child-arena spans, both
// counters must reproduce a pinned table of estimates and stats over dozens
// of randomized automata, and median-of-R must merge every stats field of
// its repetitions.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
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

// --- AliasPicker ---------------------------------------------------------

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

  // A good build after a failed one works, and a rebuild to a smaller table
  // (the counters reuse one picker across groups) leaves no stale columns.
  ASSERT_TRUE(picker
                  .TryBuild({ExtFloat::FromUint64(1), ExtFloat::FromUint64(1)},
                            "retry")
                  .ok());
  EXPECT_EQ(picker.size(), 2u);
  picker.Build({ExtFloat::FromUint64(4)});
  EXPECT_EQ(picker.size(), 1u);
  Rng rng(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(picker.Pick(&rng), 0u);
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

// One pinned counter run: the estimate's ExtFloat::ToString(), the bit
// pattern of its Log2(), and every CountStats field, in
// PQE_COUNT_STATS_FIELDS order. The rows pin the sampler's draws through the
// memoized membership oracle: a divergent membership answer anywhere
// changes the acceptance counts, so this is also the memo correctness test.
// A new CountStats field must be added to the rows.
struct PinnedRun {
  const char* value;
  const char* log2_bits;  // hex of the bit pattern of value.Log2()
  uint64_t stats[internal::kCountStatsFieldCount];
};

EstimatorConfig HotpathConfig(uint64_t seed) {
  EstimatorConfig cfg;
  cfg.epsilon = 0.3;
  cfg.seed = seed;
  cfg.pool_size = 48;
  return cfg;
}

// ToString() keeps 6 significant digits; the Log2() bit pattern pins every
// bit of the estimate.
std::string Log2Bits(const ExtFloat& value) {
  const double log2 = value.Log2();
  uint64_t bits = 0;
  std::memcpy(&bits, &log2, sizeof(bits));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

void ExpectPinned(const Result<CountEstimate>& got, const PinnedRun& want,
                  const std::string& where) {
  ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
  EXPECT_EQ(got->value.ToString(), want.value) << where;
  EXPECT_EQ(Log2Bits(got->value), want.log2_bits) << where;
  size_t i = 0;
  got->stats.ForEachField([&](const char* name, uint64_t value) {
    EXPECT_EQ(value, want.stats[i++]) << where << " field " << name;
  });
}

std::string Where(uint64_t seed) { return "seed " + std::to_string(seed); }

const PinnedRun kNftaRandomRuns[] = {
    // seed 1
    {"0", "fff0000000000000", {70, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 2
    {"18", "4010ae00d1cfdeb4", {104, 30, 816, 0, 0, 0, 0, 4, 17, 0, 0}},
    // seed 3
    {"0", "fff0000000000000", {58, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 4
    {"0", "fff0000000000000", {127, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 5
    {"0", "fff0000000000000", {129, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 6
    {"44", "4015d6753e032ea1",
     {196, 50, 1488, 1280, 1280, 0, 1280, 14, 36, 2590, 385}},
    // seed 7
    {"0", "fff0000000000000", {211, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 8
    {"11", "400bacea7c065d42",
     {135, 43, 1152, 1280, 1280, 0, 1280, 9, 29, 1878, 476}},
    // seed 9
    {"7.83984", "4007c43fd88bf57c",
     {114, 25, 864, 256, 223, 0, 256, 5, 19, 736, 198}},
    // seed 10
    {"4", "4000000000000000",
     {189, 19, 720, 256, 256, 0, 256, 2, 16, 609, 159}},
    // seed 11
    {"31.1875", "4013da0169117d84",
     {259, 63, 1968, 1536, 1416, 0, 1536, 17, 47, 3175, 440}},
    // seed 12
    {"4", "4000000000000000", {170, 24, 720, 0, 0, 0, 0, 3, 15, 0, 0}},
    // seed 13
    {"0", "fff0000000000000", {84, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 14
    {"1", "0000000000000000", {80, 11, 288, 0, 0, 0, 0, 0, 6, 0, 0}},
    // seed 15
    {"2", "3ff0000000000000", {94, 10, 288, 256, 128, 0, 256, 2, 7, 441, 71}},
    // seed 16
    {"1", "0000000000000000", {142, 15, 384, 0, 0, 0, 0, 0, 8, 0, 0}},
    // seed 17
    {"5.60681", "4003e5beedb3774f",
     {136, 21, 528, 512, 349, 0, 512, 3, 13, 494, 250}},
    // seed 18
    {"134.947", "401c4e15044c8cec",
     {172, 72, 1536, 3072, 2419, 0, 3072, 29, 44, 4361, 367}},
    // seed 19
    {"12.8984", "400d8353a7efd2c0",
     {125, 43, 1392, 512, 242, 0, 512, 11, 31, 932, 131}},
    // seed 20
    {"4", "4000000000000000",
     {186, 18, 576, 512, 512, 0, 512, 3, 14, 914, 237}},
    // seed 21
    {"180.51", "401dfbd67ee99abe",
     {158, 83, 2064, 4096, 3124, 0, 4096, 47, 59, 6704, 573}},
    // seed 22
    {"1.97656", "3fef74aef0efafae",
     {56, 13, 432, 256, 125, 0, 256, 2, 10, 208, 48}},
    // seed 23
    {"12", "400cae00d1cfdeb4",
     {68, 19, 576, 256, 256, 0, 256, 6, 13, 614, 132}},
    // seed 24
    {"24", "4012570068e7ef5a",
     {110, 46, 1392, 512, 512, 0, 512, 14, 31, 1322, 231}},
    // seed 25
    {"0", "fff0000000000000", {50, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 26
    {"30.0469", "4013a2f6651ed7b2",
     {211, 58, 1728, 1536, 1486, 0, 1536, 13, 42, 3016, 558}},
    // seed 27
    {"0", "fff0000000000000", {175, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 28
    {"1", "0000000000000000", {57, 7, 240, 0, 0, 0, 0, 0, 5, 0, 0}},
    // seed 29
    {"3", "3ff95c01a39fbd68", {111, 14, 480, 0, 0, 0, 0, 2, 10, 0, 0}},
    // seed 30
    {"2474.05", "40268b9a0a8aaa19",
     {160, 103, 2112, 6144, 4702, 0, 6144, 60, 68, 8393, 662}},
};

const PinnedRun kNftaAmbiguousRuns[] = {
    // seed 1
    {"132.373", "401c31a041de0c5b",
     {109, 26, 1152, 1792, 1201, 0, 1792, 8, 31, 3694, 372}},
    // seed 2
    {"136.131", "401c5afc1217b1e3",
     {109, 26, 1152, 1792, 1206, 0, 1792, 8, 31, 3673, 369}},
    // seed 3
    {"103.532", "401ac696208cf85d",
     {109, 26, 1152, 1792, 1161, 0, 1792, 8, 31, 3696, 382}},
    // seed 4
    {"142.665", "401ca03d96232fae",
     {109, 26, 1152, 1792, 1214, 0, 1792, 8, 31, 3683, 373}},
    // seed 5
    {"117.096", "401b7c76cd7694c3",
     {109, 26, 1152, 1792, 1180, 0, 1792, 8, 31, 3685, 375}},
};

const PinnedRun kNfaRandomRuns[] = {
    // seed 1
    {"157.688", "401d3427dd9c474d",
     {173, 96, 624, 5632, 1219, 0, 5632, 29, 35, 5536, 571}},
    // seed 2
    {"6.93848", "40065b612bf6f882",
     {122, 38, 720, 1280, 733, 0, 1280, 9, 20, 1107, 446}},
    // seed 3
    {"0", "fff0000000000000", {5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 4
    {"1", "0000000000000000", {60, 13, 336, 0, 0, 0, 0, 0, 7, 0, 0}},
    // seed 5
    {"140.708", "401c8bd56fed9ac9",
     {174, 93, 1536, 3072, 2176, 0, 3072, 34, 44, 2906, 1127}},
    // seed 6
    {"2", "3ff0000000000000", {79, 21, 528, 0, 0, 0, 0, 1, 11, 0, 0}},
    // seed 7
    {"31.4126", "4013e4a1ad4a7951",
     {164, 73, 624, 6144, 2290, 0, 6144, 33, 37, 6000, 576}},
    // seed 8
    {"17.7197", "401096d1bb359e78",
     {141, 54, 480, 3072, 991, 0, 3072, 22, 22, 2940, 408}},
    // seed 9
    {"0", "fff0000000000000", {39, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 10
    {"279.426", "402040ad150e837d",
     {247, 147, 1392, 9472, 3996, 0, 9472, 63, 66, 9284, 1256}},
    // seed 11
    {"16.3932", "401023dd2cfc1dba",
     {92, 35, 336, 2560, 944, 0, 2560, 17, 17, 2464, 288}},
    // seed 12
    {"31.8246", "4013f7e165d1d905",
     {156, 69, 960, 3584, 2256, 0, 3584, 28, 34, 3373, 702}},
    // seed 13
    {"0", "fff0000000000000", {10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 14
    {"68.9567", "40186e3382322f20",
     {205, 103, 1008, 5888, 2469, 0, 5888, 40, 44, 5698, 927}},
    // seed 15
    {"1.04736", "3fb116aa8c649090",
     {60, 29, 528, 2304, 1167, 0, 2304, 9, 20, 2211, 458}},
    // seed 16
    {"7.14766", "4006b3238ee22fe5",
     {133, 50, 912, 2048, 1279, 0, 2048, 13, 27, 1926, 707}},
    // seed 17
    {"0.891269", "bfc541acca2a70f8",
     {75, 35, 432, 2048, 654, 0, 2048, 7, 17, 1952, 373}},
    // seed 18
    {"1", "0000000000000000", {67, 15, 384, 0, 0, 0, 0, 0, 8, 0, 0}},
    // seed 19
    {"0", "fff0000000000000", {5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 20
    {"9.03125", "4009663f6fac9131",
     {85, 19, 384, 768, 706, 0, 768, 5, 11, 674, 291}},
    // seed 21
    {"0.670461", "bfe274efa6d6dd9d",
     {123, 59, 432, 3328, 470, 0, 3328, 7, 22, 3232, 377}},
    // seed 22
    {"1", "0000000000000000", {95, 15, 384, 0, 0, 0, 0, 0, 8, 0, 0}},
    // seed 23
    {"0.916243", "bfc02743261c5d9c",
     {137, 33, 624, 1792, 732, 0, 1792, 7, 20, 1620, 539}},
    // seed 24
    {"4.125", "40005aeb4dd63bf6",
     {113, 25, 576, 1024, 904, 0, 1024, 5, 16, 845, 431}},
    // seed 25
    {"1", "0000000000000000", {50, 9, 240, 0, 0, 0, 0, 0, 5, 0, 0}},
};

// seed 0xfeed, 5 reps
const PinnedRun kMedianOfRRun =
    {"63.2711", "4017ef142962f49f",
     {95, 23, 5040, 7680, 5107, 0, 7680, 35, 135, 15697, 1687}};

TEST(HotpathEquivalenceTest, CountNftaCachedMatchesLegacy) {
  Rng rng(0x9e1);
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Nfta t = RandomNfta(&rng, 2 + rng.NextBounded(5), 2,
                        4 + rng.NextBounded(12));
    const size_t n = 3 + rng.NextBounded(6);
    ExpectPinned(CountNftaTrees(t, n, HotpathConfig(seed)),
                 kNftaRandomRuns[seed - 1], Where(seed));
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
    ExpectPinned(CountNftaTrees(t, 15, HotpathConfig(seed)),
                 kNftaAmbiguousRuns[seed - 1], Where(seed));
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
    ExpectPinned(CountNfaStrings(a, n, HotpathConfig(seed)),
                 kNfaRandomRuns[seed - 1], Where(seed));
  }
}

// The feasibility pass's ablation branch: with backward pruning disabled,
// every forward-feasible stratum is processed, including those that cannot
// reach an accepting state at length n. Same automata as the first twelve
// rows of the tables above.
EstimatorConfig NoBackwardPruningConfig(uint64_t seed) {
  EstimatorConfig cfg = HotpathConfig(seed);
  cfg.disable_backward_pruning = true;
  return cfg;
}

const PinnedRun kNfaNoPruningRuns[] = {
    // seed 1
    {"136.401", "401c5de9372800fd",
     {173, 154, 1008, 7424, 1911, 0, 7424, 45, 50, 7328, 576}},
    // seed 2
    {"6.71613", "4005fb2502d4b857",
     {122, 101, 1488, 3584, 2614, 0, 3584, 23, 45, 3366, 672}},
    // seed 3
    {"0", "fff0000000000000", {5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 4
    {"1", "0000000000000000", {60, 28, 672, 0, 0, 0, 0, 0, 14, 0, 0}},
    // seed 5
    {"132.675", "401c34fd465b5953",
     {174, 156, 2256, 5376, 3842, 0, 5376, 54, 68, 5192, 1388}},
    // seed 6
    {"2", "3ff0000000000000", {79, 54, 1152, 0, 0, 0, 0, 6, 24, 0, 0}},
    // seed 7
    {"35.9074", "4014aa32d11b3ee7",
     {164, 140, 960, 9216, 3594, 0, 9216, 52, 56, 9072, 576}},
    // seed 8
    {"17.5787", "40108b03231572a8",
     {141, 116, 768, 5632, 1808, 0, 5632, 37, 38, 5488, 429}},
    // seed 9
    {"0", "fff0000000000000", {39, 2, 96, 0, 0, 0, 0, 0, 2, 0, 0}},
    // seed 10
    {"224.061", "401f3b22d4cad770",
     {247, 224, 1920, 12544, 5144, 0, 12544, 85, 89, 12352, 1339}},
    // seed 11
    {"14.9676", "400f3aebcdb5373c",
     {92, 76, 576, 4608, 1776, 0, 4608, 30, 30, 4512, 288}},
    // seed 12
    {"29.1329", "401375533005ba81",
     {156, 135, 1440, 6144, 3588, 0, 6144, 47, 54, 5932, 833}},
};

const PinnedRun kNftaNoPruningRuns[] = {
    // seed 1
    {"0", "fff0000000000000", {70, 28, 960, 512, 512, 0, 512, 3, 22, 983, 198}},
    // seed 2
    {"18", "4010ae00d1cfdeb4", {104, 65, 1968, 0, 0, 0, 0, 10, 41, 0, 0}},
    // seed 3
    {"0", "fff0000000000000", {58, 22, 768, 0, 0, 0, 0, 0, 16, 0, 0}},
    // seed 4
    {"0", "fff0000000000000",
     {127, 59, 2064, 1280, 1019, 0, 1280, 10, 48, 2601, 427}},
    // seed 5
    {"0", "fff0000000000000",
     {129, 31, 1248, 256, 256, 0, 256, 3, 27, 647, 121}},
    // seed 6
    {"44", "4015d6753e032ea1",
     {196, 132, 3840, 1792, 1792, 0, 1792, 54, 87, 3756, 534}},
    // seed 7
    {"0", "fff0000000000000",
     {211, 119, 3456, 2560, 1823, 0, 2560, 37, 82, 5638, 501}},
    // seed 8
    {"11", "400bacea7c065d42",
     {135, 110, 2736, 3840, 3840, 0, 3840, 36, 72, 5872, 895}},
    // seed 9
    {"7.66406", "4007813f7661794b",
     {114, 70, 2256, 768, 546, 0, 768, 17, 50, 2274, 254}},
    // seed 10
    {"4", "4000000000000000",
     {189, 96, 2688, 1024, 1024, 0, 1024, 11, 60, 1797, 343}},
    // seed 11
    {"31.1875", "4013da0169117d84",
     {259, 191, 5040, 4096, 3457, 0, 4096, 83, 121, 7929, 901}},
    // seed 12
    {"4", "4000000000000000",
     {170, 131, 3360, 1024, 1024, 0, 1024, 43, 74, 2001, 516}},
};

TEST(HotpathEquivalenceTest, CountNfaWithoutBackwardPruning) {
  Rng rng(0x5ca1e);
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const size_t S = 2 + rng.NextBounded(6);
    Nfa a = RandomNfa(&rng, S, 1 + rng.NextBounded(2),
                      4 + rng.NextBounded(16));
    const size_t n = 4 + rng.NextBounded(5);
    ExpectPinned(CountNfaStrings(a, n, NoBackwardPruningConfig(seed)),
                 kNfaNoPruningRuns[seed - 1], Where(seed));
  }
}

TEST(HotpathEquivalenceTest, CountNftaWithoutBackwardPruning) {
  Rng rng(0x9e1);
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Nfta t = RandomNfta(&rng, 2 + rng.NextBounded(5), 2,
                        4 + rng.NextBounded(12));
    const size_t n = 3 + rng.NextBounded(6);
    ExpectPinned(CountNftaTrees(t, n, NoBackwardPruningConfig(seed)),
                 kNftaNoPruningRuns[seed - 1], Where(seed));
  }
}

TEST(HotpathEquivalenceTest, MedianOfRWithCaches) {
  // The parallel median-of-R path (with the run index warmed for the
  // workers), aggregated stats included.
  Nfta t = AmbiguousCombNfta();
  EstimatorConfig cfg = HotpathConfig(0xfeed);
  cfg.repetitions = 5;
  cfg.num_threads = 4;
  ExpectPinned(CountNftaTrees(t, 13, cfg), kMedianOfRRun, Where(0xfeed));
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
void ExpectMedianOfRMergesEveryField(Count count, uint64_t seed) {
  constexpr size_t kReps = 3;
  EstimatorConfig cfg = HotpathConfig(seed);
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
    EXPECT_EQ(value, want.at(name)) << name;
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
  ExpectMedianOfRMergesEveryField(
      [&](const EstimatorConfig& c) { return CountNftaTrees(t, 13, c); },
      0xa66);
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
  ExpectMedianOfRMergesEveryField(
      [&](const EstimatorConfig& c) { return CountNfaStrings(a, 9, c); },
      0xa67);
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
  EstimatorConfig cfg = HotpathConfig(0x7e57);
  cfg.pool_size = 96;
  auto est = CountNftaTrees(t, n, cfg);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est->value.Log2(), exact_log2, 0.6);
}

}  // namespace
}  // namespace pqe
