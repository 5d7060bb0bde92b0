#ifndef PQE_COUNTING_BLOCK_POOL_H_
#define PQE_COUNTING_BLOCK_POOL_H_

// The counters' bulk storage — stratum sample pools and memoized state sets —
// comes in blocks of one size class, 64 KB. A counter run takes its blocks
// from one process-wide LIFO free list and gives them back when it ends, so
// the next run, of either counter and on any thread, reuses pages that are
// already mapped instead of faulting freshly trimmed heap back in. The free
// list never holds more blocks than were in use at one time, and it holds
// memory only: a block's contents are written before they are read.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pqe {

inline constexpr size_t kPoolBlockBytes = size_t{64} << 10;

class BlockPool {
 public:
  struct Stats {
    size_t in_use = 0;      // blocks acquired and not yet released
    size_t free = 0;        // 64 KB blocks on the free list
    uint64_t fresh = 0;     // blocks newly allocated, ever
    uint64_t recycled = 0;  // blocks taken from the free list, ever
  };

  // A block of `bytes`: the most recently released 64 KB block when `bytes`
  // is kPoolBlockBytes and the free list is not empty, else a new
  // allocation. Sets `*recycled` to which of the two it was.
  static void* Acquire(size_t bytes, bool* recycled);
  // Gives back a block from Acquire(bytes): a 64 KB block goes on the free
  // list, a block of any other size is deleted.
  static void Release(void* block, size_t bytes);
  static Stats GetStats();
};

// The blocks one counter run holds, all released when it is destroyed —
// whether the run finished or was cancelled. Destruction also adds the
// run's block counts to the registry counters counting.blocks_fresh and
// counting.blocks_recycled, once per run. They stay out of CountStats: they
// depend on what ran before in the process, an answer's stats must not.
class RunBlocks {
 public:
  RunBlocks() = default;
  RunBlocks(const RunBlocks&) = delete;
  RunBlocks& operator=(const RunBlocks&) = delete;
  ~RunBlocks();

  void* Acquire(size_t bytes);

 private:
  struct Held {
    void* block;
    size_t bytes;
  };
  std::vector<Held> held_;
  uint64_t fresh_ = 0;
  uint64_t recycled_ = 0;
};

}  // namespace pqe

#endif  // PQE_COUNTING_BLOCK_POOL_H_
