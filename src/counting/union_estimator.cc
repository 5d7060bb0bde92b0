#include "counting/union_estimator.h"

#include <string>

#include "obs/metrics.h"
#include "util/check.h"

namespace pqe {

SetArena::SetArena(size_t num_states, RunBlocks* blocks)
    : run_blocks_(blocks) {
  // A set of all |S| states plus its length word must fit one block.
  while ((size_t{1} << shift_) < num_states + 1) ++shift_;
}

uint32_t SetArena::Store(const std::vector<StateId>& set) {
  const size_t block_states = size_t{1} << shift_;
  const size_t len = set.size() + 1;
  if (blocks_.empty() || fill_ + len > block_states) {
    PQE_CHECK((blocks_.size() + 1) * block_states <= (size_t{1} << 32));
    blocks_.push_back(static_cast<StateId*>(
        run_blocks_->Acquire(block_states * sizeof(StateId))));
    fill_ = 0;
  }
  StateId* out = blocks_.back() + fill_;
  out[0] = static_cast<StateId>(set.size());
  std::copy(set.begin(), set.end(), out + 1);
  const size_t ref = (blocks_.size() - 1) * block_states + fill_ + 1;
  fill_ += len;
  return static_cast<uint32_t>(ref);
}

void* SliceCarver::Bytes(size_t bytes) {
  if (bytes > kPoolBlockBytes) return blocks_->Acquire(bytes);
  if (left_ < bytes) {
    next_ = static_cast<char*>(blocks_->Acquire(kPoolBlockBytes));
    left_ = kPoolBlockBytes;
  }
  void* out = next_;
  next_ += bytes;
  left_ -= bytes;
  return out;
}

UnionEstimator::UnionEstimator(const EstimatorConfig& config, size_t n,
                               const char* counter, const char* unit)
    : config_(config),
      cancel_(config.cancel),
      n_(n),
      counter_(counter),
      unit_(unit),
      rng_(config.seed),
      pool_target_(config.ResolvePoolSize(n)) {}

Status UnionEstimator::DeadlineError(size_t stratum) const {
  return Status::DeadlineExceeded(
      std::string(counter_) + ": cancelled at " + unit_ + " stratum " +
      std::to_string(stratum) + "/" + std::to_string(n_));
}

const uint64_t* UnionEstimator::DrawBatch(size_t batch,
                                          size_t words_per_draw) {
  words_.resize(words_per_draw * batch);
  rng_.FillBlock(words_.data(), words_.size());
  ++stats_.batch_draws;
  if (batch_hist_ == nullptr) {
    batch_hist_ = &obs::MetricRegistry::Global().GetHistogram(
        "counting.batch_size_hist");
  }
  batch_hist_->Observe(batch);
  return words_.data();
}

void UnionEstimator::BuildPicker(const std::vector<ExtFloat>& weights) {
  picker_.Build(weights);
  ++stats_.alias_builds;
}

void UnionEstimator::FillPool(const std::vector<UnionMember>& members,
                              PoolSlice<PooledSample>* pool) {
  live_groups_.clear();
  weights_.clear();
  for (uint32_t gi = 0; gi < groups_.size(); ++gi) {
    if (groups_[gi].estimate.IsZero()) continue;
    live_groups_.push_back(gi);
    weights_.push_back(groups_[gi].estimate);
  }
  if (live_groups_.size() > 1) BuildPicker(weights_);
  *pool = CarvePool<PooledSample>(pool_target_);
  // One word for the group pick, one for the index within the group.
  for (size_t done = 0; done < pool_target_;) {
    const size_t batch = std::min(kDrawBatch, pool_target_ - done);
    const uint64_t* words = DrawBatch(batch, 2);
    for (size_t i = 0; i < batch; ++i) {
      const Group& g =
          groups_[live_groups_.size() == 1
                      ? live_groups_[0]
                      : live_groups_[picker_.PickFromDouble(
                            Rng::DoubleFromWord(words[2 * i]))]];
      const uint64_t word = words[2 * i + 1];
      PooledSample sample;
      if (g.singleton()) {
        if (DrawFrom(members[g.begin], word, &sample)) pool->push_back(sample);
      } else if (g.num_hits() != 0) {
        pool->push_back(
            hits_[g.hits_begin + Rng::BoundedFromWord(word, g.num_hits())]);
      }
    }
    done += batch;
  }
  stats_.pool_entries += pool->size();
}

}  // namespace pqe
