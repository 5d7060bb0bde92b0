// Allocation guard for CountNFA and CountNFTA: one run allocates per live
// stratum (its pool block) and per arena block, never per pooled sample or
// per memoized reach/root-state set. The binary replaces the global
// operator new to count heap allocations around one counter run on a §5.1
// gadget-expanded automaton (a path CQ for CountNfaStrings, a tree CQ for
// CountNftaTrees), at a small and a large pool size: a per-sample
// allocation shows up as a count that grows with the pool.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/path_pqe.h"
#include "core/pqe.h"
#include "core/projection.h"
#include "counting/count_nfa.h"
#include "counting/count_nfta.h"
#include "workload/generators.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};

void* CountedAllocOrNull(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlloc(std::size_t size) {
  if (void* p = CountedAllocOrNull(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every allocating form is replaced, the nothrow ones too (std::stable_sort
// takes its buffer through them), so each delete frees what malloc gave.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocOrNull(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocOrNull(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pqe {
namespace {

struct CountedRun {
  size_t allocations = 0;
  CountStats stats;
};

using Counter = std::function<Result<CountEstimate>(const EstimatorConfig&)>;

// One serial run (repetitions = 1), counted after an identical warm-up run
// so lazily created process-wide state (metric registry entries, the
// automaton's lazy indexes) is not charged to the run.
CountedRun CountAllocations(const Counter& count, size_t pool_size) {
  EstimatorConfig cfg;
  cfg.epsilon = 0.3;
  cfg.seed = 0xa110c;
  cfg.pool_size = pool_size;
  cfg.repetitions = 1;
  cfg.num_threads = 1;
  EXPECT_TRUE(count(cfg).ok());
  g_allocations.store(0);
  g_counting.store(true);
  auto run = count(cfg);
  g_counting.store(false);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return {g_allocations.load(), run.ok() ? run->stats : CountStats{}};
}

void ExpectFlatInPoolSize(const Counter& count) {
  const CountedRun small = CountAllocations(count, 48);
  const CountedRun large = CountAllocations(count, 768);
  std::printf("operator new calls: pool 48 -> %zu (memo misses %zu), "
              "pool 768 -> %zu (memo misses %zu)\n",
              small.allocations, small.stats.runstates_memo_misses,
              large.allocations, large.stats.runstates_memo_misses);
  // Non-vacuity: the larger pool really does more membership work.
  ASSERT_GT(large.stats.runstates_memo_misses,
            4 * small.stats.runstates_memo_misses);
  EXPECT_LE(large.allocations, 2 * small.allocations);
}

TEST(CountNfaAllocationTest, AllocationsDoNotScaleWithPoolSize) {
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
  auto skeleton = BuildPathPqeSkeleton(qi.query, pdb.database());
  ASSERT_TRUE(skeleton.ok()) << skeleton.status().ToString();
  auto probs = ProjectedFactProbabilities(skeleton->original_fact, pdb);
  ASSERT_TRUE(probs.ok());
  auto bound = BindPathPqeNfa(*skeleton, *probs);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ExpectFlatInPoolSize([&](const EstimatorConfig& cfg) {
    return CountNfaStrings(bound->nfa, bound->word_length, cfg);
  });
}

// Caterpillar-3 with the facts of core_path_test's PinnedAnswerTest: its
// unary labels route it to the tree automaton.
TEST(CountNftaAllocationTest, AllocationsDoNotScaleWithPoolSize) {
  auto qi = MakeCaterpillarQuery(3).MoveValue();
  Database db(qi.schema);
  const std::pair<const char*, std::vector<std::string>> facts[] = {
      {"R1", {"a0", "b0"}}, {"R1", {"a1", "b0"}}, {"R1", {"a1", "b1"}},
      {"L2", {"b0"}},       {"L2", {"b1"}},       {"R2", {"b0", "c0"}},
      {"R2", {"b1", "c1"}}, {"R2", {"b0", "c1"}}, {"L3", {"c0"}},
      {"L3", {"c1"}},       {"R3", {"c0", "d0"}}, {"R3", {"c1", "d1"}},
  };
  for (const auto& [rel, args] : facts) {
    ASSERT_TRUE(db.AddFactByName(rel, args).ok());
  }
  ProbabilityModel pm;
  pm.max_denominator = 8;
  pm.seed = 12;
  const ProbabilisticDatabase pdb = AttachProbabilities(std::move(db), pm);
  auto automaton = BuildPqeAutomaton(qi.query, pdb, {});
  ASSERT_TRUE(automaton.ok()) << automaton.status().ToString();
  ExpectFlatInPoolSize([&](const EstimatorConfig& cfg) {
    return CountNftaTrees(automaton->weighted, automaton->tree_size, cfg);
  });
}

}  // namespace
}  // namespace pqe
