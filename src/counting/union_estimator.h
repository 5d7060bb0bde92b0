#ifndef PQE_COUNTING_UNION_ESTIMATOR_H_
#define PQE_COUNTING_UNION_ESTIMATOR_H_

// The stratum store and the per-stratum union estimator of the ACJR
// template (Arenas et al., arXiv 2005.10029) that CountNFTA instantiates,
// and CountNFA with it through the unary encoding: every live stratum keeps
// an estimate of its size and a pool of near-uniform samples, and a stratum
// that is an overlapping union of smaller strata is estimated Karp–Luby
// style. The counter owns how a stratum expands into union members and how
// membership of a sample is decided; the group loop, the forced-sample
// fallback, the pool mixture, the block arena and the cancellation poll
// live here.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "automata/nfa.h"
#include "counting/block_pool.h"
#include "counting/config.h"
#include "counting/weighted_pick.h"
#include "util/extfloat.h"
#include "util/rng.h"
#include "util/span.h"
#include "util/status.h"

namespace pqe {

namespace obs {
class Histogram;
}  // namespace obs

// Attempts drawn per block-RNG batch: 2–3 raw words per attempt, so a batch
// is a few KiB — resident in L1 while the acceptance pass runs over it.
inline constexpr size_t kDrawBatch = 256;

// Sorted state sets (the counter's memoized root-state sets),
// each stored as its length followed by its states, back to back in blocks
// of 2^14 states (64 KB, the BlockPool's class), or of the next power of two
// above |S| when that is larger, so a set never spans two blocks. Fixed-size
// blocks, not one growing buffer: a multi-MB buffer cannot reuse the holes a
// long-lived process leaves in its heap. A reference is the offset of a
// set's first state, which is never 0 (a length word precedes it).
class SetArena {
 public:
  static constexpr uint32_t kNoSet = 0;

  // Takes its blocks from `blocks`, which must outlive the arena's sets.
  SetArena(size_t num_states, RunBlocks* blocks);

  // Appends `set` and returns its reference.
  uint32_t Store(const std::vector<StateId>& set);

  Span<StateId> Get(uint32_t ref) const {
    const StateId* states =
        blocks_[ref >> shift_] + (ref & ((uint32_t{1} << shift_) - 1));
    return Span<StateId>(states, states[-1]);
  }

 private:
  RunBlocks* run_blocks_;
  std::vector<StateId*> blocks_;
  size_t shift_ = 14;  // log2 of the block size in states
  size_t fill_ = 0;    // states used in the last block
};

// A pooled sample, stored as a derivation reference: `ref` names the last
// step taken (a tree's child-forest stratum, or its transition when the
// tree is a leaf), `index` the sample of the predecessor pool that step
// extends, and `memo` the sample's memoized state set in the run's SetArena
// (SetArena::kNoSet until computed).
// Samples are never materialized, so a pool costs O(1) memory per sample.
struct PooledSample {
  uint32_t ref = 0;
  uint32_t index = 0;
  uint32_t memo = SetArena::kNoSet;
};

class SliceCarver;

// A stratum's sample pool: room for a fixed number of samples in a pool
// block, carved by a SliceCarver, and filled append-only. The slice owns
// nothing; its block lives as long as the run's RunBlocks.
template <typename T>
class PoolSlice {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  void push_back(const T& sample) { new (data_ + size_++) T(sample); }

 private:
  friend class SliceCarver;
  T* data_ = nullptr;
  uint32_t size_ = 0;
};

// Carves one run's pool slices, of tree and forest sample types, back to
// back out of 64 KB blocks: at the default pool target (768) a block holds
// 7 pools of 12-byte samples. A slice larger than a block gets a block of
// its own, which bypasses the free list.
class SliceCarver {
 public:
  explicit SliceCarver(RunBlocks* blocks) : blocks_(blocks) {}

  template <typename T>
  PoolSlice<T> Carve(size_t capacity) {
    // Slices sit back to back, so every sample type must keep the next one
    // aligned.
    static_assert(alignof(T) == alignof(uint32_t) &&
                  sizeof(T) % alignof(uint32_t) == 0);
    PoolSlice<T> slice;
    slice.data_ = static_cast<T*>(Bytes(capacity * sizeof(T)));
    return slice;
  }

 private:
  void* Bytes(size_t bytes);

  RunBlocks* blocks_;
  char* next_ = nullptr;
  size_t left_ = 0;  // bytes left in the current block
};

// A live stratum: the estimate of its size and its sample pool, one slice
// carved at the pool target. Pools are append-only and a stratum only
// references strictly smaller, finished strata, so samples never move.
template <typename Key, typename Sample = PooledSample>
struct Stratum {
  Key key;
  ExtFloat estimate;
  PoolSlice<Sample> pool;
};

// Draw bound of a union member that extends no pool, so no index is drawn
// for it (a leaf transition).
inline constexpr size_t kNoDraw = SIZE_MAX;

// One member B_k of a stratum's union ∪_k B_k: its samples are `ref`
// applied to a uniform sample of a smaller stratum's pool.
struct UnionMember {
  SymbolId symbol;      // members with distinct symbols are disjoint
  uint32_t transition;  // the transition the member extends by
  uint32_t ref;         // PooledSample::ref of the member's samples
  size_t draw_bound;    // size of the pool it extends, or kNoDraw
  ExtFloat weight;      // estimate of |B_k|
};

// The state of one counter run: the RNG, the stats, the pool target, the
// run's storage blocks, the cancellation poll and the per-stratum scratch
// of the union estimator.
class UnionEstimator {
 public:
  // `counter` and `unit` name the run in a DeadlineError, e.g. "count_nfa"
  // and "length".
  UnionEstimator(const EstimatorConfig& config, size_t n, const char* counter,
                 const char* unit);

  Rng& rng() { return rng_; }
  CountStats& stats() { return stats_; }
  size_t pool_target() const { return pool_target_; }
  // The run's blocks: its pool slices and its SetArena come from here.
  RunBlocks* blocks() { return &blocks_; }
  // A pool slice with room for `capacity` samples.
  template <typename Sample>
  PoolSlice<Sample> CarvePool(size_t capacity) {
    return slices_.Carve<Sample>(capacity);
  }

  // --- Cancellation: one poll per stratum, plus one per rejection batch
  // (an attempt budget can dominate a stratum).
  bool Cancelled() const { return cancel_ != nullptr && cancel_->Expired(); }
  Status DeadlineError(size_t stratum) const;
  // Records one finished stratum level on the token's progress counter.
  void FinishLevel() const {
    if (cancel_ != nullptr) cancel_->AddProgress(1);
  }

  // Fills `words_per_draw * batch` raw block-RNG words for `batch` draws.
  const uint64_t* DrawBatch(size_t batch, size_t words_per_draw);
  // Builds the alias table the next draw loop picks from, reusing capacity.
  void BuildPicker(const std::vector<ExtFloat>& weights);
  const AliasPicker& picker() const { return picker_; }

  // Estimates |∪ members| and fills `pool` from it. Members with distinct
  // symbols are disjoint, so the union is an exact sum over same-symbol
  // groups: a singleton group contributes its weight; a larger group gets
  // Karp–Luby rejection (Reject), then the forced-sample fallback. The pool
  // is a mixture over the groups proportional to their estimates: singleton
  // groups draw fresh samples, larger groups resample their canonical hits.
  // `members` are sorted here by (symbol, transition), which fixes the group
  // order and the order weights add in. `canonical(begin, end, chosen,
  // sample)` decides whether `chosen` is the canonical member of the group
  // [begin, end) for `sample`.
  template <typename Canonical>
  ExtFloat EstimateUnion(std::vector<UnionMember>* members,
                         const Canonical& canonical,
                         PoolSlice<PooledSample>* pool);

  // Batched Karp–Luby rejection over the members [begin, end): draw a member
  // ∝ its weight and a uniform sample of the pool it extends, and keep the
  // sample iff `chosen` is canonical for it (one membership check). Runs
  // until the pool target is hit, the attempt budget (kAttemptFactor · pool
  // target + 64) is spent or the run is cancelled; a whole batch counts as
  // attempts even when the target is crossed mid-batch.
  struct Rejection {
    size_t attempts = 0;
    size_t hits = 0;
  };
  template <typename Canonical>
  Rejection Reject(const UnionMember* begin, const UnionMember* end,
                   const Canonical& canonical);

 private:
  // A same-symbol run [begin, end) of the members, with its canonical hits
  // as the run [hits_begin, hits_end) of hits_.
  struct Group {
    uint32_t begin = 0;
    uint32_t end = 0;
    ExtFloat weight_sum;
    ExtFloat estimate;
    uint32_t hits_begin = 0;
    uint32_t hits_end = 0;

    bool singleton() const { return end - begin == 1; }
    uint32_t num_hits() const { return hits_end - hits_begin; }
  };

  // `m`'s sample for the uniform raw `word`; false if the pool it extends
  // is empty.
  static bool DrawFrom(const UnionMember& m, uint64_t word,
                       PooledSample* out) {
    if (m.draw_bound == 0) return false;
    out->ref = m.ref;
    out->index = m.draw_bound == kNoDraw
                     ? 0
                     : static_cast<uint32_t>(
                           Rng::BoundedFromWord(word, m.draw_bound));
    return true;
  }

  void FillPool(const std::vector<UnionMember>& members,
                PoolSlice<PooledSample>* pool);

  const EstimatorConfig& config_;
  const CancelToken* cancel_;
  const size_t n_;
  const char* counter_;
  const char* unit_;
  Rng rng_;
  size_t pool_target_;
  CountStats stats_;
  RunBlocks blocks_;
  SliceCarver slices_{&blocks_};

  AliasPicker picker_;
  std::vector<uint64_t> words_;  // raw block-RNG output, one batch
  std::vector<Group> groups_;
  std::vector<PooledSample> hits_;  // canonical hits, one run per group
  std::vector<uint32_t> live_groups_;  // groups with a non-zero estimate
  std::vector<ExtFloat> weights_;
  obs::Histogram* batch_hist_ = nullptr;  // counting.batch_size_hist
};

template <typename Canonical>
UnionEstimator::Rejection UnionEstimator::Reject(const UnionMember* begin,
                                                 const UnionMember* end,
                                                 const Canonical& canonical) {
  weights_.clear();
  for (const UnionMember* m = begin; m != end; ++m) {
    weights_.push_back(m->weight);
  }
  BuildPicker(weights_);
  Rejection r;
  // Attempts per pool-target sample before a group gives up.
  constexpr size_t kAttemptFactor = 24;
  const size_t max_attempts = kAttemptFactor * pool_target_ + 64;
  while (r.hits < pool_target_ && r.attempts < max_attempts) {
    if (Cancelled()) break;
    const size_t batch = std::min(kDrawBatch, max_attempts - r.attempts);
    const uint64_t* words = DrawBatch(batch, 2);
    for (size_t i = 0; i < batch; ++i) {
      const UnionMember& chosen =
          begin[picker_.PickFromDouble(Rng::DoubleFromWord(words[2 * i]))];
      PooledSample sample;
      if (!DrawFrom(chosen, words[2 * i + 1], &sample)) continue;
      ++stats_.membership_checks;
      if (canonical(begin, end, chosen, sample)) {
        hits_.push_back(sample);
        ++r.hits;
      }
    }
    r.attempts += batch;
  }
  stats_.attempts += r.attempts;
  stats_.accepted += r.hits;
  return r;
}

template <typename Canonical>
ExtFloat UnionEstimator::EstimateUnion(std::vector<UnionMember>* unsorted,
                                       const Canonical& canonical,
                                       PoolSlice<PooledSample>* pool) {
  // Each member has its own transition, so this order is total.
  std::sort(unsorted->begin(), unsorted->end(),
            [](const UnionMember& a, const UnionMember& b) {
              return a.symbol != b.symbol ? a.symbol < b.symbol
                                          : a.transition < b.transition;
            });
  const std::vector<UnionMember>& members = *unsorted;
  groups_.clear();
  for (uint32_t begin = 0; begin < members.size();) {
    Group g;
    g.begin = begin;
    g.end = begin;
    while (g.end < members.size() &&
           members[g.end].symbol == members[begin].symbol) {
      g.weight_sum = g.weight_sum.Add(members[g.end].weight);
      ++g.end;
    }
    groups_.push_back(g);
    begin = g.end;
  }
  hits_.clear();
  ExtFloat total;
  for (Group& g : groups_) {
    g.hits_begin = static_cast<uint32_t>(hits_.size());
    if (g.singleton()) {
      g.estimate = g.weight_sum;  // no overlap possible
    } else {
      const Rejection r =
          Reject(&members[g.begin], &members[g.end], canonical);
      if (r.hits == 0) {
        // Statistically negligible when attempts >> group size (acceptance
        // is >= 1/|group|); force one biased sample so a live stratum never
        // reports a false zero.
        ++stats_.forced_samples;
        const UnionMember& m = members[g.begin + picker_.Pick(&rng_)];
        if (m.draw_bound != 0) {
          PooledSample forced{m.ref};
          if (m.draw_bound != kNoDraw) {
            forced.index =
                static_cast<uint32_t>(rng_.NextBounded(m.draw_bound));
          }
          hits_.push_back(forced);
          g.estimate =
              g.weight_sum.Scale(1.0 / static_cast<double>(r.attempts + 1));
        }
      } else {
        g.estimate = g.weight_sum.Scale(static_cast<double>(r.hits) /
                                        static_cast<double>(r.attempts));
      }
    }
    g.hits_end = static_cast<uint32_t>(hits_.size());
    total = total.Add(g.estimate);
  }
  if (!total.IsZero()) FillPool(members, pool);
  return total;
}

}  // namespace pqe

#endif  // PQE_COUNTING_UNION_ESTIMATOR_H_
