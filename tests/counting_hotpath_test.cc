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
    {"18", "4010ae00d1cfdeb4", {104, 30, 1440, 0, 0, 0, 0, 4, 30, 0, 0}},
    // seed 3
    {"0", "fff0000000000000", {58, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 4
    {"0", "fff0000000000000", {127, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 5
    {"0", "fff0000000000000", {129, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 6
    {"44", "4015d6753e032ea1",
     {196, 50, 2400, 1280, 1280, 0, 1280, 14, 55, 2531, 354}},
    // seed 7
    {"0", "fff0000000000000", {211, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 8
    {"11", "400bacea7c065d42",
     {135, 43, 2064, 1280, 1280, 0, 1280, 9, 48, 1840, 409}},
    // seed 9
    {"8.08594", "40081f91ed4eef83",
     {114, 25, 1200, 256, 230, 0, 256, 5, 26, 736, 176}},
    // seed 10
    {"4", "4000000000000000",
     {189, 19, 912, 256, 256, 0, 256, 2, 20, 619, 149}},
    // seed 11
    {"31.0703", "4013d471aa306463",
     {259, 63, 3024, 1536, 1411, 0, 1536, 17, 69, 3212, 428}},
    // seed 12
    {"4", "4000000000000000", {170, 24, 1152, 0, 0, 0, 0, 3, 24, 0, 0}},
    // seed 13
    {"0", "fff0000000000000", {84, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 14
    {"1", "0000000000000000", {80, 11, 528, 0, 0, 0, 0, 0, 11, 0, 0}},
    // seed 15
    {"2", "3ff0000000000000", {94, 10, 480, 256, 128, 0, 256, 2, 11, 440, 72}},
    // seed 16
    {"1", "0000000000000000", {142, 15, 720, 0, 0, 0, 0, 0, 15, 0, 0}},
    // seed 17
    {"5.45273", "4003936956e2e73b",
     {136, 21, 1008, 512, 345, 0, 512, 3, 23, 522, 210}},
    // seed 18
    {"119.752", "401b9d996697ab00",
     {172, 72, 3456, 3072, 2369, 0, 3072, 29, 84, 4323, 335}},
    // seed 19
    {"12.8594", "400d7a5d7c158937",
     {125, 43, 2064, 512, 246, 0, 512, 11, 45, 941, 121}},
    // seed 20
    {"4", "4000000000000000",
     {186, 18, 864, 512, 512, 0, 512, 3, 20, 915, 204}},
    // seed 21
    {"185.023", "401e2051888dc3de",
     {158, 83, 3984, 4096, 3144, 0, 4096, 47, 99, 6664, 512}},
    // seed 22
    {"2.00781", "3ff01709c46d7aac",
     {56, 13, 624, 256, 129, 0, 256, 2, 14, 216, 40}},
    // seed 23
    {"12", "400cae00d1cfdeb4",
     {68, 19, 912, 256, 256, 0, 256, 6, 20, 598, 130}},
    // seed 24
    {"24", "4012570068e7ef5a",
     {110, 46, 2208, 512, 512, 0, 512, 14, 48, 1320, 225}},
    // seed 25
    {"0", "fff0000000000000", {50, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 26
    {"30.0469", "4013a2f6651ed7b2",
     {211, 58, 2784, 1536, 1486, 0, 1536, 13, 64, 2993, 481}},
    // seed 27
    {"0", "fff0000000000000", {175, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 28
    {"1", "0000000000000000", {57, 7, 336, 0, 0, 0, 0, 0, 7, 0, 0}},
    // seed 29
    {"3", "3ff95c01a39fbd68", {111, 14, 672, 0, 0, 0, 0, 2, 14, 0, 0}},
    // seed 30
    {"2450.05", "40268466fe3a6e21",
     {160, 103, 4944, 6144, 4692, 0, 6144, 60, 127, 8358, 607}},
};

const PinnedRun kNftaAmbiguousRuns[] = {
    // seed 1
    {"154.04", "401d1193de0db787",
     {109, 26, 1248, 1792, 1228, 0, 1792, 8, 33, 3715, 329}},
    // seed 2
    {"134.927", "401c4ddc119d49f8",
     {109, 26, 1248, 1792, 1204, 0, 1792, 8, 33, 3713, 343}},
    // seed 3
    {"111.801", "401b381a29a54cd9",
     {109, 26, 1248, 1792, 1173, 0, 1792, 8, 33, 3720, 342}},
    // seed 4
    {"148.402", "401cda7d5d090852",
     {109, 26, 1248, 1792, 1221, 0, 1792, 8, 33, 3725, 341}},
    // seed 5
    {"108.131", "401b06ca36cb0f01",
     {109, 26, 1248, 1792, 1167, 0, 1792, 8, 33, 3727, 347}},
};

const PinnedRun kNfaRandomRuns[] = {
    // seed 1
    {"148.986", "401ce048e88b8d4f",
     {16, 15, 624, 6400, 1312, 0, 6400, 32, 38, 6398, 571}},
    // seed 2
    {"6.82731", "40062ba7eaef31d6",
     {35, 21, 816, 1536, 926, 0, 1536, 9, 23, 1532, 611}},
    // seed 3
    {"0", "fff0000000000000", {18, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 4
    {"1", "0000000000000000", {48, 8, 336, 0, 0, 0, 0, 0, 7, 0, 0}},
    // seed 5
    {"137.707", "401c6bfcab233746",
     {45, 35, 1584, 3072, 2201, 0, 3072, 34, 45, 3070, 1197}},
    // seed 6
    {"2", "3ff0000000000000", {28, 14, 576, 256, 256, 0, 256, 1, 13, 254, 280}},
    // seed 7
    {"32.3199", "40140eb200b5bc0e",
     {18, 17, 672, 8960, 3442, 0, 8960, 43, 49, 8957, 669}},
    // seed 8
    {"16.3194", "40101d3328a3492b",
     {15, 14, 528, 5120, 1573, 0, 5120, 30, 31, 5117, 496}},
    // seed 9
    {"0", "fff0000000000000", {21, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 10
    {"281.952", "40204752ed42840a",
     {36, 32, 1440, 10496, 4610, 0, 10496, 68, 71, 10494, 1384}},
    // seed 11
    {"16.7678", "4010453eea14f0b8",
     {10, 8, 336, 3072, 1131, 0, 3072, 19, 19, 3071, 289}},
    // seed 12
    {"31.9034", "4013fb8893ff15e7",
     {30, 24, 1008, 4096, 2630, 0, 4096, 30, 37, 4093, 807}},
    // seed 13
    {"0", "fff0000000000000", {42, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 14
    {"67.9369", "401858309383909f",
     {28, 23, 1008, 6912, 2886, 0, 6912, 43, 48, 6910, 930}},
    // seed 15
    {"1.12767", "3fc62ff7ac53c30f",
     {14, 13, 528, 2816, 1427, 0, 2816, 11, 22, 2814, 462}},
    // seed 16
    {"6.05298", "4004c7f9d349ac9e",
     {49, 23, 960, 2304, 1337, 0, 2304, 14, 29, 2301, 793}},
    // seed 17
    {"1.36849", "3fdcf723f1f1f530",
     {12, 11, 432, 3072, 841, 0, 3072, 9, 21, 3070, 374}},
    // seed 18
    {"1", "0000000000000000", {54, 9, 384, 0, 0, 0, 0, 0, 8, 0, 0}},
    // seed 19
    {"0", "fff0000000000000", {18, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    // seed 20
    {"8.94531", "400949ff833e157e",
     {20, 10, 432, 768, 741, 0, 768, 5, 12, 767, 324}},
    // seed 21
    {"1.22917", "3fd30d457b0a1a51",
     {12, 10, 432, 3840, 580, 0, 3840, 9, 24, 3839, 383}},
    // seed 22
    {"0.96875", "bfa77394c9d958d0",
     {63, 10, 432, 256, 124, 0, 256, 1, 10, 255, 232}},
    // seed 23
    {"0.931677", "bfba231fafcb4638",
     {36, 17, 672, 2816, 1126, 0, 2816, 11, 25, 2813, 641}},
    // seed 24
    {"3.78076", "3ffeb2e693c42c0a",
     {42, 16, 624, 1280, 1017, 0, 1280, 6, 18, 1277, 484}},
    // seed 25
    {"1", "0000000000000000", {42, 6, 240, 0, 0, 0, 0, 0, 5, 0, 0}},
};

// seed 0xfeed, 5 reps
const PinnedRun kMedianOfRRun =
    {"65.1435", "40181a29b53ef648",
     {95, 23, 5520, 7680, 5135, 0, 7680, 35, 145, 15859, 1519}};

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
    {"148.986", "401ce048e88b8d4f",
     {16, 16, 672, 7424, 1492, 0, 7424, 35, 43, 7422, 578}},
    // seed 2
    {"7.2515", "4006ddc1ee040038",
     {35, 31, 1296, 3328, 2277, 0, 3328, 18, 40, 3324, 812}},
    // seed 3
    {"0", "fff0000000000000",
     {18, 12, 480, 2560, 736, 0, 2560, 10, 20, 2558, 383}},
    // seed 4
    {"1", "0000000000000000",
     {48, 10, 336, 0, 0, 0, 0, 0, 7, 0, 0}},
    // seed 5
    {"149.931", "401ce9a1d1f976fe",
     {45, 41, 1872, 3840, 2738, 0, 3840, 42, 54, 3838, 1373}},
    // seed 6
    {"2", "3ff0000000000000",
     {28, 20, 864, 256, 256, 0, 256, 1, 19, 254, 302}},
    // seed 7
    {"33.803", "401450f9b3f37e09",
     {18, 18, 720, 9472, 3724, 0, 9472, 46, 52, 9469, 669}},
    // seed 8
    {"16.3125", "40101c93f392398d",
     {15, 15, 576, 5632, 1793, 0, 5632, 33, 34, 5629, 494}},
    // seed 9
    {"0", "fff0000000000000",
     {21, 9, 336, 512, 277, 0, 512, 2, 9, 510, 91}},
    // seed 10
    {"313.324", "40209540bf4151d1",
     {36, 34, 1536, 11520, 5004, 0, 11520, 74, 77, 11518, 1408}},
    // seed 11
    {"16.7678", "4010453eea14f0b8",
     {10, 9, 384, 3584, 1298, 0, 3584, 22, 22, 3583, 289}},
    // seed 12
    {"30.6807", "4013c1cd9544b491",
     {30, 28, 1200, 5632, 3428, 0, 5632, 40, 47, 5629, 948}},
};

const PinnedRun kNftaNoPruningRuns[] = {
    // seed 1
    {"0", "fff0000000000000",
     {70, 28, 1344, 512, 512, 0, 512, 3, 30, 1011, 173}},
    // seed 2
    {"18", "4010ae00d1cfdeb4",
     {104, 65, 3120, 0, 0, 0, 0, 10, 65, 0, 0}},
    // seed 3
    {"0", "fff0000000000000",
     {58, 22, 1056, 0, 0, 0, 0, 0, 22, 0, 0}},
    // seed 4
    {"0", "fff0000000000000",
     {127, 59, 2832, 1280, 1002, 0, 1280, 10, 64, 2469, 374}},
    // seed 5
    {"0", "fff0000000000000",
     {129, 31, 1488, 256, 256, 0, 256, 3, 32, 650, 118}},
    // seed 6
    {"44", "4015d6753e032ea1",
     {196, 132, 6336, 1792, 1792, 0, 1792, 54, 139, 3603, 477}},
    // seed 7
    {"0", "fff0000000000000",
     {211, 119, 5712, 2560, 1831, 0, 2560, 37, 129, 5629, 484}},
    // seed 8
    {"11", "400bacea7c065d42",
     {135, 110, 5280, 3840, 3840, 0, 3840, 36, 125, 5828, 778}},
    // seed 9
    {"7.94531", "4007ebbba0834370",
     {114, 70, 3360, 768, 547, 0, 768, 17, 73, 2267, 241}},
    // seed 10
    {"4", "4000000000000000",
     {189, 96, 4608, 1024, 1024, 0, 1024, 11, 100, 1780, 304}},
    // seed 11
    {"31.0234", "4013d236a9935522",
     {259, 191, 9168, 4096, 3429, 0, 4096, 83, 207, 7859, 855}},
    // seed 12
    {"4", "4000000000000000",
     {170, 131, 6288, 1024, 1024, 0, 1024, 43, 135, 1978, 458}},
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
