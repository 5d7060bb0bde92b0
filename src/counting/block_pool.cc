#include "counting/block_pool.h"

#include <mutex>
#include <new>

#include "obs/metrics.h"

namespace pqe {

namespace {

struct FreeList {
  std::mutex mu;
  std::vector<void*> blocks;  // LIFO: the last released is reused first
  BlockPool::Stats stats;
};

// Never destroyed: a run may still release blocks during static teardown.
FreeList& Pool() {
  static FreeList* pool = new FreeList;
  return *pool;
}

}  // namespace

void* BlockPool::Acquire(size_t bytes, bool* recycled) {
  FreeList& pool = Pool();
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    ++pool.stats.in_use;
    *recycled = bytes == kPoolBlockBytes && !pool.blocks.empty();
    if (*recycled) {
      ++pool.stats.recycled;
      void* block = pool.blocks.back();
      pool.blocks.pop_back();
      return block;
    }
    ++pool.stats.fresh;
  }
  return ::operator new(bytes);
}

void BlockPool::Release(void* block, size_t bytes) {
  FreeList& pool = Pool();
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    --pool.stats.in_use;
    if (bytes == kPoolBlockBytes) {
      pool.blocks.push_back(block);
      return;
    }
  }
  ::operator delete(block);
}

BlockPool::Stats BlockPool::GetStats() {
  FreeList& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mu);
  Stats stats = pool.stats;
  stats.free = pool.blocks.size();
  return stats;
}

RunBlocks::~RunBlocks() {
  for (const Held& h : held_) BlockPool::Release(h.block, h.bytes);
  static obs::Counter& fresh =
      obs::MetricRegistry::Global().GetCounter("counting.blocks_fresh");
  static obs::Counter& recycled =
      obs::MetricRegistry::Global().GetCounter("counting.blocks_recycled");
  fresh.Add(fresh_);
  recycled.Add(recycled_);
}

void* RunBlocks::Acquire(size_t bytes) {
  bool recycled = false;
  void* block = BlockPool::Acquire(bytes, &recycled);
  ++(recycled ? recycled_ : fresh_);
  held_.push_back(Held{block, bytes});
  return block;
}

}  // namespace pqe
