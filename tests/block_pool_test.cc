// The counters' block pool (counting/block_pool.h): LIFO recycling of 64 KB
// blocks, the bypass for other sizes, concurrent use, and what it means for
// whole counter runs — a second identical run reuses every block, its
// answer is bit-identical, and no block stays in use after a run, finished
// or cancelled.

#include "counting/block_pool.h"

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/path_pqe.h"
#include "core/pqe.h"
#include "core/projection.h"
#include "counting/count_nfa.h"
#include "counting/count_nfta.h"
#include "obs/metrics.h"
#include "util/cancel.h"
#include "util/check.h"
#include "workload/generators.h"

namespace pqe {
namespace {

TEST(BlockPoolTest, RecyclesLastReleasedFirst) {
  bool recycled = false;
  void* a = BlockPool::Acquire(kPoolBlockBytes, &recycled);
  void* b = BlockPool::Acquire(kPoolBlockBytes, &recycled);
  ASSERT_NE(a, b);
  BlockPool::Release(a, kPoolBlockBytes);
  BlockPool::Release(b, kPoolBlockBytes);
  const BlockPool::Stats before = BlockPool::GetStats();
  EXPECT_EQ(BlockPool::Acquire(kPoolBlockBytes, &recycled), b);
  EXPECT_TRUE(recycled);
  EXPECT_EQ(BlockPool::Acquire(kPoolBlockBytes, &recycled), a);
  EXPECT_TRUE(recycled);
  const BlockPool::Stats after = BlockPool::GetStats();
  EXPECT_EQ(after.fresh, before.fresh);
  EXPECT_EQ(after.recycled, before.recycled + 2);
  EXPECT_EQ(after.free, before.free - 2);
  BlockPool::Release(a, kPoolBlockBytes);
  BlockPool::Release(b, kPoolBlockBytes);
}

TEST(BlockPoolTest, OtherSizesBypassTheFreeList) {
  bool recycled = true;
  // Keep one 64 KB block on the free list, so a bypass is not an empty
  // list in disguise.
  BlockPool::Release(BlockPool::Acquire(kPoolBlockBytes, &recycled),
                     kPoolBlockBytes);
  const BlockPool::Stats before = BlockPool::GetStats();
  ASSERT_GE(before.free, 1u);
  for (const size_t bytes : {2 * kPoolBlockBytes, kPoolBlockBytes / 2}) {
    void* block = BlockPool::Acquire(bytes, &recycled);
    EXPECT_FALSE(recycled);
    std::memset(block, 0xab, bytes);
    BlockPool::Release(block, bytes);
  }
  const BlockPool::Stats after = BlockPool::GetStats();
  EXPECT_EQ(after.fresh, before.fresh + 2);
  EXPECT_EQ(after.recycled, before.recycled);
  EXPECT_EQ(after.free, before.free);
  EXPECT_EQ(after.in_use, before.in_use);
}

// Four threads hold up to three blocks each, stamp them with their own
// pattern and check it before giving them back: a block handed to two
// holders at once shows up as a foreign stamp (and as a race under TSan).
TEST(BlockPoolTest, ConcurrentAcquireAndRelease) {
  const BlockPool::Stats before = BlockPool::GetStats();
  std::atomic<size_t> corrupt{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([t, &corrupt] {
      for (uint32_t round = 0; round < 200; ++round) {
        void* held[3];
        const uint32_t stamp = (t << 16) | round;
        for (void*& block : held) {
          bool recycled = false;
          block = BlockPool::Acquire(kPoolBlockBytes, &recycled);
          std::memcpy(block, &stamp, sizeof(stamp));
          std::memcpy(static_cast<char*>(block) + kPoolBlockBytes -
                          sizeof(stamp),
                      &stamp, sizeof(stamp));
        }
        for (void* block : held) {
          uint32_t head = 0;
          uint32_t tail = 0;
          std::memcpy(&head, block, sizeof(head));
          std::memcpy(&tail,
                      static_cast<char*>(block) + kPoolBlockBytes -
                          sizeof(tail),
                      sizeof(tail));
          if (head != stamp || tail != stamp) ++corrupt;
          BlockPool::Release(block, kPoolBlockBytes);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(corrupt.load(), 0u);
  const BlockPool::Stats after = BlockPool::GetStats();
  EXPECT_EQ(after.in_use, before.in_use);
  // Never more blocks retained than were in use at one time.
  EXPECT_LE(after.free, before.free + 12);
  EXPECT_EQ(after.fresh + after.recycled,
            before.fresh + before.recycled + 4 * 200 * 3);
}

using Counter = std::function<Result<CountEstimate>(const EstimatorConfig&)>;

EstimatorConfig SerialConfig() {
  EstimatorConfig cfg;
  cfg.epsilon = 0.3;
  cfg.seed = 0xb10c;
  cfg.repetitions = 1;
  cfg.num_threads = 1;
  return cfg;
}

uint64_t Log2Bits(const CountEstimate& est) {
  const double log2 = est.value.Log2();
  uint64_t bits = 0;
  std::memcpy(&bits, &log2, sizeof(bits));
  return bits;
}

uint64_t RegistryCounter(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name).Value();
}

// Two back-to-back serial runs: the second takes every block from the free
// list, gives the same answer bit for bit, and both leave no block in use.
void ExpectSecondRunRecycles(const Counter& count) {
  const EstimatorConfig cfg = SerialConfig();
  auto first = count(cfg);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const BlockPool::Stats mid = BlockPool::GetStats();
  EXPECT_EQ(mid.in_use, 0u);
  const uint64_t registry_fresh = RegistryCounter("counting.blocks_fresh");
  const uint64_t registry_recycled =
      RegistryCounter("counting.blocks_recycled");
  auto second = count(cfg);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const BlockPool::Stats end = BlockPool::GetStats();
  EXPECT_EQ(Log2Bits(*first), Log2Bits(*second));
  EXPECT_EQ(end.fresh, mid.fresh) << "the second run took fresh blocks";
  EXPECT_GT(end.recycled, mid.recycled);
  EXPECT_EQ(end.in_use, 0u);
  // The registry counters saw the same run.
  EXPECT_EQ(RegistryCounter("counting.blocks_fresh"), registry_fresh);
  EXPECT_EQ(RegistryCounter("counting.blocks_recycled") - registry_recycled,
            end.recycled - mid.recycled);
}

// A run cancelled part-way through (a watcher thread cancels the token once
// the first level is done) returns kDeadlineExceeded and leaves no block in
// use. The watcher can lose the race to a fast run, so up to 5 tries.
void ExpectCancelledRunReleasesBlocks(const Counter& count) {
  bool cancelled_mid_run = false;
  for (int attempt = 0; attempt < 5 && !cancelled_mid_run; ++attempt) {
    const uint64_t held_before = RegistryCounter("counting.blocks_fresh") +
                                 RegistryCounter("counting.blocks_recycled");
    CancelToken token;
    EstimatorConfig cfg = SerialConfig();
    cfg.cancel = &token;
    std::atomic<bool> done{false};
    std::thread watcher([&] {
      while (!done.load() && token.progress() == 0) {
        std::this_thread::yield();
      }
      token.Cancel();
    });
    auto est = count(cfg);
    done.store(true);
    watcher.join();
    EXPECT_EQ(BlockPool::GetStats().in_use, 0u);
    if (est.ok()) continue;
    ASSERT_EQ(est.status().code(), StatusCode::kDeadlineExceeded)
        << est.status().ToString();
    // The run held blocks before it was cancelled.
    EXPECT_GT(RegistryCounter("counting.blocks_fresh") +
                  RegistryCounter("counting.blocks_recycled"),
              held_before);
    cancelled_mid_run = true;
  }
  EXPECT_TRUE(cancelled_mid_run);
}

// The §5.1-expanded path-4 automaton of count_nfa_alloc_test.
class PathFixture {
 public:
  PathFixture() {
    auto qi = MakePathQuery(4).MoveValue();
    LayeredGraphOptions opt;
    opt.width = 3;
    opt.density = 0.8;
    opt.seed = 7;
    auto db = MakeLayeredPathDatabase(qi, opt).MoveValue();
    ProbabilityModel pm;
    pm.max_denominator = 8;
    pm.seed = 100;
    const ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
    auto skeleton = BuildPathPqeSkeleton(qi.query, pdb.database()).MoveValue();
    auto probs =
        ProjectedFactProbabilities(skeleton.original_fact, pdb).MoveValue();
    bound_ = BindPathPqeNfa(skeleton, probs).MoveValue();
  }

  Counter counter() const {
    return [this](const EstimatorConfig& cfg) {
      return CountNfaStrings(bound_.nfa, bound_.word_length, cfg);
    };
  }

 private:
  BoundPathNfa bound_;
};

// The §5.1-expanded caterpillar-3 automaton of count_nfa_alloc_test.
class TreeFixture {
 public:
  TreeFixture() {
    auto qi = MakeCaterpillarQuery(3).MoveValue();
    Database db(qi.schema);
    const std::pair<const char*, std::vector<std::string>> facts[] = {
        {"R1", {"a0", "b0"}}, {"R1", {"a1", "b0"}}, {"R1", {"a1", "b1"}},
        {"L2", {"b0"}},       {"L2", {"b1"}},       {"R2", {"b0", "c0"}},
        {"R2", {"b1", "c1"}}, {"R2", {"b0", "c1"}}, {"L3", {"c0"}},
        {"L3", {"c1"}},       {"R3", {"c0", "d0"}}, {"R3", {"c1", "d1"}},
    };
    for (const auto& [rel, args] : facts) {
      PQE_CHECK(db.AddFactByName(rel, args).ok());
    }
    ProbabilityModel pm;
    pm.max_denominator = 8;
    pm.seed = 12;
    const ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
    automaton_ = BuildPqeAutomaton(qi.query, pdb, {}).MoveValue();
  }

  Counter counter() const {
    return [this](const EstimatorConfig& cfg) {
      return CountNftaTrees(automaton_.weighted, automaton_.tree_size, cfg);
    };
  }

 private:
  PqeAutomaton automaton_;
};

TEST(BlockPoolRunTest, CountNfaSecondRunRecyclesEveryBlock) {
  const PathFixture fixture;
  ExpectSecondRunRecycles(fixture.counter());
}

TEST(BlockPoolRunTest, CountNftaSecondRunRecyclesEveryBlock) {
  const TreeFixture fixture;
  ExpectSecondRunRecycles(fixture.counter());
}

TEST(BlockPoolRunTest, CountNfaCancelledRunReleasesEveryBlock) {
  const PathFixture fixture;
  ExpectCancelledRunReleasesBlocks(fixture.counter());
}

TEST(BlockPoolRunTest, CountNftaCancelledRunReleasesEveryBlock) {
  const TreeFixture fixture;
  ExpectCancelledRunReleasesBlocks(fixture.counter());
}

}  // namespace
}  // namespace pqe
