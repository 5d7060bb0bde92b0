// Tests for the conditioned-world sampling API built on the counting pools:
// every sampled world must satisfy the query, and for uniform labels the
// empirical distribution must roughly match the conditioned distribution.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "core/pqe.h"
#include "core/sampling.h"
#include "core/ur_construction.h"
#include "counting/count_nfta.h"
#include "cq/builders.h"
#include "eval/eval.h"
#include "workload/generators.h"

namespace pqe {
namespace {

EstimatorConfig SamplingConfig(uint64_t seed = 7) {
  EstimatorConfig cfg;
  cfg.epsilon = 0.15;
  cfg.seed = seed;
  return cfg;
}

std::string WorldKey(const std::vector<bool>& world) {
  std::string key;
  for (bool b : world) key.push_back(b ? '1' : '0');
  return key;
}

TEST(SamplingTest, EverySampledSubinstanceSatisfiesQuery) {
  auto qi = MakePathQuery(3).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 2;
  opt.density = 0.8;
  opt.seed = 4;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  auto result =
      SampleSatisfyingSubinstances(qi.query, db, SamplingConfig(), 64);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->worlds.size(), 64u);
  for (const auto& world : result->worlds) {
    ASSERT_EQ(world.size(), result->projected_db.NumFacts());
    EXPECT_TRUE(
        SatisfiesSubinstance(result->projected_db, qi.query, world).value());
  }
}

TEST(SamplingTest, ConditionedWorldsSatisfyQuery) {
  auto qi = MakeH0Query().MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R", {"a"}).ok());
  ASSERT_TRUE(db.AddFactByName("R", {"b"}).ok());
  ASSERT_TRUE(db.AddFactByName("S", {"a", "u"}).ok());
  ASSERT_TRUE(db.AddFactByName("S", {"b", "v"}).ok());
  ASSERT_TRUE(db.AddFactByName("T", {"u"}).ok());
  ASSERT_TRUE(db.AddFactByName("T", {"v"}).ok());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  ASSERT_TRUE(pdb.SetProbability(0, Probability{2, 3}).ok());
  ASSERT_TRUE(pdb.SetProbability(3, Probability{1, 4}).ok());
  auto result =
      SampleConditionedWorlds(qi.query, pdb, SamplingConfig(3), 48);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->worlds.size(), 48u);
  for (const auto& world : result->worlds) {
    EXPECT_TRUE(
        SatisfiesSubinstance(result->projected_db, qi.query, world).value());
  }
}

TEST(SamplingTest, UnsatisfiableQueryYieldsNoWorlds) {
  auto qi = MakePathQuery(2).MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"x", "y"}).ok());  // no join
  auto result =
      SampleSatisfyingSubinstances(qi.query, db, SamplingConfig(), 16);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->worlds.empty());
}

TEST(SamplingTest, UniformCaseCoversAllSatisfyingWorlds) {
  // Tiny instance: R1(a,b), R2(b,c), R2(b,d): satisfying subsets are those
  // with fact 0 and at least one of facts 1, 2 → 3 worlds.
  auto qi = MakePathQuery(2).MoveValue();
  Database db(qi.schema);
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"b", "c"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"b", "d"}).ok());
  auto result =
      SampleSatisfyingSubinstances(qi.query, db, SamplingConfig(11), 600);
  ASSERT_TRUE(result.ok());
  std::map<std::string, size_t> histogram;
  for (const auto& world : result->worlds) ++histogram[WorldKey(world)];
  EXPECT_EQ(histogram.size(), 3u);  // all three satisfying worlds appear
  for (const auto& [key, count] : histogram) {
    // Near-uniform: each world ~1/3 of draws, allow a wide tolerance.
    EXPECT_GT(count, 600 / 3 / 3) << key;
    EXPECT_LT(count, 600 * 2 / 3) << key;
  }
}

TEST(SamplingTest, OriginalFactMappingIsConsistent) {
  auto qi = MakePathQuery(2).MoveValue();
  Schema schema = qi.schema;
  ASSERT_TRUE(schema.AddRelation("Noise", 1).ok());
  Database db(schema);
  ASSERT_TRUE(db.AddFactByName("Noise", {"n"}).ok());  // FactId 0, projected away
  ASSERT_TRUE(db.AddFactByName("R1", {"a", "b"}).ok());
  ASSERT_TRUE(db.AddFactByName("R2", {"b", "c"}).ok());
  auto result =
      SampleSatisfyingSubinstances(qi.query, db, SamplingConfig(), 8);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->original_fact.size(), 2u);
  EXPECT_EQ(result->original_fact[0], 1u);
  EXPECT_EQ(result->original_fact[1], 2u);
}

// ------------------------------------------------------ pinned samples ----
// CountAndSampleNftaTrees materializes its samples from the counter's pools,
// so the pool storage is on this path. The table pins, per fixture and seed,
// the estimate's log2 bits and an FNV-1a fingerprint over every sampled
// tree's preorder (label, child count) sequence, in sample order.

// The tree automata behind SampleSatisfyingSubinstances (Proposition 1, the
// path-3 fixture above) and SampleConditionedWorlds (Theorem 1, H0 above).
struct SampleFixture {
  Nfta nfta;
  size_t tree_size = 0;
};

SampleFixture UrPath3Fixture() {
  auto qi = MakePathQuery(3).MoveValue();
  LayeredGraphOptions opt;
  opt.width = 2;
  opt.density = 0.8;
  opt.seed = 4;
  auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
  auto automaton = BuildUrAutomaton(qi.query, db, {}).MoveValue();
  return {std::move(automaton.nfta), automaton.tree_size};
}

SampleFixture PqeH0Fixture() {
  auto qi = MakeH0Query().MoveValue();
  Database db(qi.schema);
  EXPECT_TRUE(db.AddFactByName("R", {"a"}).ok());
  EXPECT_TRUE(db.AddFactByName("R", {"b"}).ok());
  EXPECT_TRUE(db.AddFactByName("S", {"a", "u"}).ok());
  EXPECT_TRUE(db.AddFactByName("S", {"b", "v"}).ok());
  EXPECT_TRUE(db.AddFactByName("T", {"u"}).ok());
  EXPECT_TRUE(db.AddFactByName("T", {"v"}).ok());
  ProbabilisticDatabase pdb = ProbabilisticDatabase::Uniform(std::move(db));
  EXPECT_TRUE(pdb.SetProbability(0, Probability{2, 3}).ok());
  EXPECT_TRUE(pdb.SetProbability(3, Probability{1, 4}).ok());
  auto automaton = BuildPqeAutomaton(qi.query, pdb, {}).MoveValue();
  return {std::move(automaton.weighted), automaton.tree_size};
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t Fingerprint(uint64_t h, const LabeledTree& tree, uint32_t node) {
  h = Fnv1a(h, tree.label(node));
  h = Fnv1a(h, tree.children(node).size());
  for (uint32_t child : tree.children(node)) h = Fingerprint(h, tree, child);
  return h;
}

std::string DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  return buf;
}

struct PinnedSampleRow {
  const char* fixture;
  uint64_t seed;
  const char* log2_bits;  // hex of the estimate's Log2() bit pattern
  size_t samples;
  uint64_t fingerprint;
};

constexpr size_t kPinnedSamples = 24;

constexpr PinnedSampleRow kPinnedSampleRows[] = {
    {"ur_path3", 7, "4022668b6fed2478", 24, 0xa64fec683ee6f8a5ull},
    {"ur_path3", 11, "402226fe91fd1b31", 24, 0xb0506a9e098b18e5ull},
    {"ur_path3", 0x5eed, "402230d71b5f3ef3", 24, 0xe7d5c0bedca5b5a4ull},
    {"pqe_h0", 3, "40158c5d5e1e1afd", 24, 0x6a808ac298416ce4ull},
    {"pqe_h0", 11, "40159e97abd8f949", 24, 0x01b13f189872ede4ull},
    {"pqe_h0", 0x5eed, "40159e97abd8f949", 24, 0x278d4f1b966864a4ull},
};

TEST(SamplingPinTest, EstimatesAndSampledTreesMatchTheTable) {
  const SampleFixture ur = UrPath3Fixture();
  const SampleFixture h0 = PqeH0Fixture();
  for (const PinnedSampleRow& row : kPinnedSampleRows) {
    const SampleFixture& fx =
        std::string(row.fixture) == "ur_path3" ? ur : h0;
    auto run = CountAndSampleNftaTrees(fx.nfta, fx.tree_size,
                                       SamplingConfig(row.seed),
                                       kPinnedSamples);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    uint64_t h = 0xcbf29ce484222325ull;
    for (const LabeledTree& tree : run->samples) {
      h = Fingerprint(h, tree, tree.root());
    }
    const std::string where =
        std::string(row.fixture) + " seed " + std::to_string(row.seed);
    EXPECT_EQ(DoubleBits(run->estimate.value.Log2()), row.log2_bits)
        << where;
    EXPECT_EQ(run->samples.size(), row.samples) << where;
    EXPECT_EQ(h, row.fingerprint) << where;
  }
}

}  // namespace
}  // namespace pqe
