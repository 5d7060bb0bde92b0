// Allocation guard for CountNFA: one run allocates per live stratum (its
// pool block) and per arena block, never per pooled sample or per memoized
// reach set. The binary replaces the global operator new to count heap
// allocations around one CountNfaStrings run on a §5.1 gadget-expanded path
// automaton, at a small and a large pool size: a per-sample allocation
// shows up as a count that grows with the pool.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/path_pqe.h"
#include "core/projection.h"
#include "counting/count_nfa.h"
#include "workload/generators.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pqe {
namespace {

struct CountedRun {
  size_t allocations = 0;
  CountStats stats;
};

// One serial run (repetitions = 1), counted after an identical warm-up run
// so lazily created process-wide state (metric registry entries, the
// automaton's CSR adjacency) is not charged to the run.
CountedRun CountAllocations(const BoundPathNfa& bound, size_t pool_size) {
  EstimatorConfig cfg;
  cfg.epsilon = 0.3;
  cfg.seed = 0xa110c;
  cfg.pool_size = pool_size;
  cfg.repetitions = 1;
  cfg.num_threads = 1;
  EXPECT_TRUE(CountNfaStrings(bound.nfa, bound.word_length, cfg).ok());
  g_allocations.store(0);
  g_counting.store(true);
  auto run = CountNfaStrings(bound.nfa, bound.word_length, cfg);
  g_counting.store(false);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return {g_allocations.load(), run.ok() ? run->stats : CountStats{}};
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

  const CountedRun small = CountAllocations(*bound, 48);
  const CountedRun large = CountAllocations(*bound, 768);
  std::printf("operator new calls: pool 48 -> %zu (memo misses %zu), "
              "pool 768 -> %zu (memo misses %zu)\n",
              small.allocations, small.stats.runstates_memo_misses,
              large.allocations, large.stats.runstates_memo_misses);
  // Non-vacuity: the larger pool really does more membership work.
  ASSERT_GT(large.stats.runstates_memo_misses,
            4 * small.stats.runstates_memo_misses);
  EXPECT_LE(large.allocations, 2 * small.allocations);
}

}  // namespace
}  // namespace pqe
