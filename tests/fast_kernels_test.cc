// Tests for the batched sampling kernels (docs/performance.md, "Sampler"):
// block RNG generation must reproduce the scalar stream word for word,
// AliasPicker draws must match the weight proportions (χ²), and every
// sampling layer (CountNFA, CountNFTA, Karp–Luby, Monte Carlo, the engine)
// must stay inside the accuracy band of an exact oracle while being
// fixed-seed reproducible and thread-count invariant.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "automata/nfa.h"
#include "automata/nfta.h"
#include "core/engine.h"
#include "core/path_pqe.h"
#include "counting/count_nfa.h"
#include "counting/count_nfta.h"
#include "counting/exact.h"
#include "counting/weighted_pick.h"
#include "cq/builders.h"
#include "lineage/karp_luby.h"
#include "lineage/lineage.h"
#include "lineage/monte_carlo.h"
#include "util/extfloat.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace pqe {
namespace {

// --- Block RNG -----------------------------------------------------------

TEST(RngBlockTest, FillBlockMatchesScalarNext) {
  for (uint64_t seed : {0ull, 1ull, 0x5eedull, 0xffffffffffffffffull}) {
    Rng block_rng(seed);
    Rng scalar_rng(seed);
    // Odd sizes + back-to-back blocks: the state hand-off between blocks
    // must be seamless.
    std::vector<uint64_t> words(257);
    block_rng.FillBlock(words.data(), words.size());
    for (size_t i = 0; i < words.size(); ++i) {
      ASSERT_EQ(words[i], scalar_rng.Next()) << "seed " << seed << " i " << i;
    }
    block_rng.FillBlock(words.data(), 3);
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_EQ(words[i], scalar_rng.Next()) << "second block i " << i;
    }
    // And the scalar stream continues from where the blocks left off.
    ASSERT_EQ(block_rng.Next(), scalar_rng.Next());
    // DoubleFromWord maps each block word to the double NextDouble() draws.
    Rng double_rng(seed);
    block_rng = Rng(seed);
    block_rng.FillBlock(words.data(), words.size());
    for (size_t i = 0; i < words.size(); ++i) {
      ASSERT_EQ(Rng::DoubleFromWord(words[i]), double_rng.NextDouble())
          << "seed " << seed << " i " << i;
    }
  }
}

TEST(RngBlockTest, BoundedFromWordInRangeAndRoughlyUniform) {
  Rng rng(0x60d);
  const uint64_t kBound = 8;
  const size_t kDraws = 80000;
  std::vector<size_t> counts(kBound, 0);
  for (size_t i = 0; i < kDraws; ++i) {
    const uint64_t v = Rng::BoundedFromWord(rng.Next(), kBound);
    ASSERT_LT(v, kBound);
    ++counts[v];
  }
  // χ² with 7 df: P(X > 24.32) = 0.001.
  const double expected = static_cast<double>(kDraws) / kBound;
  double chi2 = 0.0;
  for (size_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 24.32);
  // Edge words.
  EXPECT_EQ(Rng::BoundedFromWord(0, 17), 0u);
  EXPECT_EQ(Rng::BoundedFromWord(~0ull, 17), 16u);
  EXPECT_EQ(Rng::BoundedFromWord(~0ull, 1), 0u);
}

// --- AliasPicker vs exact proportions ------------------------------------

TEST(FastKernelsTest, AliasChiSquaredOnRandomTables) {
  // Randomized weight tables: the empirical draw frequencies must match the
  // exact proportions. Critical value ≈ df + 4·√(2·df) (≈ 0.0002 tail for
  // these df) keeps the fixed-seed check deterministic and tight.
  Rng setup(0x7ab1e);
  for (int round = 0; round < 10; ++round) {
    const size_t n = 2 + setup.NextBounded(14);
    std::vector<ExtFloat> weights(n);
    std::vector<double> raw(n, 0.0);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t w = setup.NextBounded(50);  // zeros allowed
      weights[i] = ExtFloat::FromUint64(w);
      raw[i] = static_cast<double>(w);
      total += raw[i];
    }
    if (total == 0.0) {
      weights[0] = ExtFloat::FromUint64(1);
      raw[0] = 1.0;
      total = 1.0;
    }
    AliasPicker picker(weights);
    Rng rng(round * 977 + 5);
    const size_t kDraws = 60000;
    std::vector<size_t> counts(n, 0);
    for (size_t i = 0; i < kDraws; ++i) ++counts[picker.Pick(&rng)];
    double chi2 = 0.0;
    size_t df = 0;
    for (size_t i = 0; i < n; ++i) {
      if (raw[i] == 0.0) {
        ASSERT_EQ(counts[i], 0u) << "round " << round << " zero index " << i;
        continue;
      }
      ++df;
      const double expected = kDraws * raw[i] / total;
      const double d = static_cast<double>(counts[i]) - expected;
      chi2 += d * d / expected;
    }
    if (df > 1) {
      const double crit =
          static_cast<double>(df - 1) +
          4.0 * std::sqrt(2.0 * static_cast<double>(df - 1));
      EXPECT_LT(chi2, crit) << "round " << round << " df " << df - 1;
    }
  }
}

// --- Counting core vs exact oracles --------------------------------------

// Strings over {a, b} containing at least one 'a', accepted ambiguously
// (every 'a' position spawns a run): |L_n| = 2^n − 1.
Nfa AtLeastOneANfa() {
  Nfa a;
  StateId q0 = a.AddState();
  StateId q1 = a.AddState();
  a.EnsureAlphabetSize(2);
  a.MarkInitial(q0);
  a.MarkAccepting(q1);
  a.AddTransition(q0, 0, q0);
  a.AddTransition(q0, 1, q0);
  a.AddTransition(q0, 0, q1);
  a.AddTransition(q1, 0, q1);
  a.AddTransition(q1, 1, q1);
  return a;
}

// Binary trees with two leaf colors, counted ambiguously (Catalan-like).
Nfta CatalanNfta() {
  Nfta t;
  StateId q = t.AddState();
  t.SetInitialState(q);
  t.AddTransition(q, 0, {q, q});
  t.AddTransition(q, 0, {});
  t.AddTransition(q, 1, {});
  return t;
}

EstimatorConfig KernelConfig(uint64_t seed) {
  EstimatorConfig cfg;
  cfg.epsilon = 0.3;
  cfg.seed = seed;
  cfg.pool_size = 96;
  return cfg;
}

TEST(FastKernelsTest, CountNfaFastTracksExactOracle) {
  Nfa a = AtLeastOneANfa();
  const size_t n = 12;
  auto exact = ExactCountNfaStrings(a, n);
  ASSERT_TRUE(exact.ok());
  const double exact_log2 = ExtFloat::FromBigUint(*exact).Log2();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto est = CountNfaStrings(a, n, KernelConfig(seed));
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    EXPECT_NEAR(est->value.Log2(), exact_log2, 0.6) << "seed " << seed;
    EXPECT_GT(est->stats.alias_builds, 0u);
    EXPECT_GT(est->stats.batch_draws, 0u);
  }
}

TEST(FastKernelsTest, CountNftaFastTracksExactOracle) {
  Nfta t = CatalanNfta();
  const size_t n = 11;
  auto exact = ExactCountNftaTrees(t, n);
  ASSERT_TRUE(exact.ok());
  const double exact_log2 = ExtFloat::FromBigUint(*exact).Log2();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto est = CountNftaTrees(t, n, KernelConfig(seed));
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    EXPECT_NEAR(est->value.Log2(), exact_log2, 0.6) << "seed " << seed;
    EXPECT_GT(est->stats.alias_builds, 0u);
    EXPECT_GT(est->stats.batch_draws, 0u);
  }
}

TEST(FastKernelsTest, FastModeFixedSeedReproducible) {
  Nfta t = CatalanNfta();
  auto a = CountNftaTrees(t, 11, KernelConfig(0xf00));
  auto b = CountNftaTrees(t, 11, KernelConfig(0xf00));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->value.ToString(), b->value.ToString());
  EXPECT_EQ(a->stats.attempts, b->stats.attempts);
  EXPECT_EQ(a->stats.accepted, b->stats.accepted);
}

TEST(FastKernelsTest, FastModeThreadCountInvariant) {
  // Median-of-R amplification fans repetitions across threads; the
  // per-repetition streams are fixed by (seed, index), so the aggregate
  // must be bit-identical at every thread count.
  Nfta t = CatalanNfta();
  EstimatorConfig serial = KernelConfig(0xbead);
  serial.repetitions = 5;
  serial.num_threads = 1;
  EstimatorConfig parallel = serial;
  parallel.num_threads = 4;
  auto a = CountNftaTrees(t, 11, serial);
  auto b = CountNftaTrees(t, 11, parallel);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->value.ToString(), b->value.ToString());
  EXPECT_EQ(a->stats.attempts, b->stats.attempts);
}

// --- Karp–Luby ------------------------------------------------------------

TEST(FastKernelsTest, KarpLubyFastWithinBandOfExact) {
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
  ASSERT_GT(truth, 0.0);
  KarpLubyConfig cfg;
  cfg.epsilon = 0.05;
  cfg.seed = 3;
  auto kl = KarpLubyEstimate(lineage, pdb, cfg).MoveValue();
  EXPECT_NEAR(kl.probability / truth, 1.0, 0.15);

  // Fixed-seed reproducible, and bit-identical across thread counts (the
  // shard structure is unchanged by the batched kernel).
  auto again = KarpLubyEstimate(lineage, pdb, cfg).MoveValue();
  EXPECT_EQ(kl.probability, again.probability);
  EXPECT_EQ(kl.hits, again.hits);
  KarpLubyConfig threaded = cfg;
  threaded.num_threads = 4;
  auto parallel = KarpLubyEstimate(lineage, pdb, threaded).MoveValue();
  EXPECT_EQ(kl.probability, parallel.probability);
  EXPECT_EQ(kl.hits, parallel.hits);
}

// --- Monte Carlo -----------------------------------------------------------

TEST(FastKernelsTest, MonteCarloFastMatchesExactProbability) {
  auto qi = MakePathQuery(2).MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"b", "c"}).ok());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  MonteCarloConfig cfg;
  cfg.seed = 21;
  cfg.num_samples = 200000;
  auto mc = MonteCarloPqe(qi.query, pdb, cfg).MoveValue();
  EXPECT_NEAR(mc.probability, 0.25, 0.01);
  MonteCarloConfig threaded = cfg;
  threaded.num_threads = 4;
  auto parallel = MonteCarloPqe(qi.query, pdb, threaded).MoveValue();
  EXPECT_EQ(mc.probability, parallel.probability);
  EXPECT_EQ(mc.hits, parallel.hits);
}

// --- Engine plumbing -----------------------------------------------------

TEST(FastKernelsTest, EngineFastModeEndToEnd) {
  auto qi = MakePathQuery(4).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 3;
  opt.density = 0.6;
  opt.seed = 3;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  ProbabilityModel pm;
  pm.max_denominator = 8;
  pm.seed = 5;
  ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);

  auto opts = PqeEngine::Options::Builder()
                  .Method(PqeMethod::kFpras)
                  .Epsilon(0.25)
                  .Seed(11)
                  .Build()
                  .MoveValue();
  const EvalResponse resp =
      PqeEngine(opts).EvaluateRequest(EvalRequest::ForQuery(qi.query, pdb));
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  const PqeAnswer& answer = resp.answer;
  const double truth = PathPqeExact(qi.query, pdb).MoveValue().ToDouble();
  ASSERT_GT(truth, 0.0);
  ASSERT_GT(answer.probability, 0.0);
  EXPECT_NEAR(std::log2(answer.probability / truth), 0.0, 0.6);
  ASSERT_TRUE(answer.count_stats.has_value());
  EXPECT_GT(answer.count_stats->alias_builds, 0u);
  EXPECT_GT(answer.count_stats->batch_draws, 0u);
}

}  // namespace
}  // namespace pqe
