// Tests for the fork/join worker pool behind the parallel sampling layers:
// exactly-once task execution, caller participation, exception propagation,
// batch reuse, and the thread-count/flag resolution helpers.

#include "util/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pqe {
namespace {

// Saves and restores PQE_THREADS so tests that poke the environment do not
// leak into each other (ConsumeThreadsFlag exports the variable on purpose).
class ScopedThreadsEnv {
 public:
  ScopedThreadsEnv() {
    const char* v = std::getenv("PQE_THREADS");
    had_ = v != nullptr;
    if (had_) saved_ = v;
    unsetenv("PQE_THREADS");
  }
  ~ScopedThreadsEnv() {
    if (had_) {
      setenv("PQE_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("PQE_THREADS");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kTasks = 257;
  std::vector<std::atomic<int>> runs(kTasks);
  pool.RunBatch(kTasks, /*max_parallelism=*/4, [&](size_t i) {
    runs[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, ZeroWorkersRunsInlineInOrder) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  std::vector<size_t> order;
  pool.RunBatch(5, /*max_parallelism=*/8, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), std::this_thread::get_id());
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, MaxParallelismOneStaysOnCallerThread) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.RunBatch(4, /*max_parallelism=*/1, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<size_t> total{0};
  for (int batch = 0; batch < 20; ++batch) {
    pool.RunBatch(16, /*max_parallelism=*/3, [&](size_t i) {
      total.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 20u * (16u * 15u / 2u));
}

TEST(ThreadPoolTest, RethrowsFirstTaskException) {
  ThreadPool pool(2);
  std::atomic<size_t> started{0};
  // Every task throws, so each participating thread runs exactly one task
  // before its own error parks the cursor past the end: at most
  // max_parallelism tasks can ever start, however the threads interleave.
  EXPECT_THROW(pool.RunBatch(1000, /*max_parallelism=*/3,
                             [&](size_t) {
                               started.fetch_add(1, std::memory_order_relaxed);
                               throw std::runtime_error("task failed");
                             }),
               std::runtime_error);
  EXPECT_GE(started.load(), 1u);
  EXPECT_LE(started.load(), 3u);  // unstarted tasks were skipped
  // The pool stays usable after an error.
  std::atomic<size_t> ok{0};
  pool.RunBatch(8, 3, [&](size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8u);
}

TEST(ThreadPoolTest, SharedPoolExercisesRealThreadsEvenOnSmallMachines) {
  // Sized max(hardware_concurrency, 8) - 1 so determinism and TSan tests
  // run actual cross-thread interleavings regardless of the host's cores.
  EXPECT_GE(ThreadPool::Shared().num_workers(), 7u);
}

TEST(ThreadPoolTest, ResolveNumThreadsPrefersExplicitConfig) {
  ScopedThreadsEnv guard;
  EXPECT_EQ(ThreadPool::ResolveNumThreads(5), 5u);
  setenv("PQE_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::ResolveNumThreads(5), 5u);  // config still wins
  EXPECT_EQ(ThreadPool::ResolveNumThreads(0), 3u);  // env fallback
}

TEST(ThreadPoolTest, ResolveNumThreadsDefaultsToSerial) {
  ScopedThreadsEnv guard;
  EXPECT_EQ(ThreadPool::ResolveNumThreads(0), 1u);
  setenv("PQE_THREADS", "garbage", 1);
  EXPECT_EQ(ThreadPool::ResolveNumThreads(0), 1u);
  setenv("PQE_THREADS", "0", 1);
  EXPECT_EQ(ThreadPool::ResolveNumThreads(0), 1u);
}

TEST(ParallelForTest, CoversAllIndicesAtEveryThreadCount) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    constexpr size_t kTasks = 100;
    std::vector<std::atomic<int>> runs(kTasks);
    ParallelFor(threads, kTasks, [&](size_t i) {
      runs[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ConsumeThreadsFlagTest, StripsFlagAndExportsEnv) {
  ScopedThreadsEnv guard;
  std::string a0 = "prog", a1 = "--threads=6", a2 = "--other";
  char* argv[] = {a0.data(), a1.data(), a2.data()};
  int argc = 3;
  EXPECT_EQ(ConsumeThreadsFlag(&argc, argv), 6u);
  EXPECT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "--other");
  const char* env = std::getenv("PQE_THREADS");
  ASSERT_NE(env, nullptr);
  EXPECT_STREQ(env, "6");
}

TEST(ConsumeThreadsFlagTest, LeavesMalformedValuesAlone) {
  ScopedThreadsEnv guard;
  std::string a0 = "prog", a1 = "--threads=zero";
  char* argv[] = {a0.data(), a1.data()};
  int argc = 2;
  EXPECT_EQ(ConsumeThreadsFlag(&argc, argv), 0u);
  EXPECT_EQ(argc, 2);  // not consumed
  EXPECT_EQ(std::getenv("PQE_THREADS"), nullptr);
}

}  // namespace
}  // namespace pqe
