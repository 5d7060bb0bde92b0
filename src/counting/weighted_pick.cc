#include "counting/weighted_pick.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "counting/config.h"
#include "util/result.h"
#include "util/check.h"

namespace pqe {

namespace {

// Index of the maximum weight, or InvalidArgument naming `context` when the
// table is empty or all-zero — the shared precondition of every sampler
// here (a draw from an all-zero table has no defined distribution).
Result<size_t> MaxWeightIndex(const std::vector<ExtFloat>& weights,
                              const char* context) {
  if (weights.empty()) {
    return Status::InvalidArgument(std::string(context) +
                                   ": empty weight table");
  }
  size_t max_idx = 0;
  for (size_t i = 1; i < weights.size(); ++i) {
    if (weights[max_idx] < weights[i]) max_idx = i;
  }
  if (weights[max_idx].IsZero()) {
    return Status::InvalidArgument(std::string(context) + ": all " +
                                   std::to_string(weights.size()) +
                                   " weights are zero");
  }
  return max_idx;
}

}  // namespace

ExtFloat SumExtFloats(const std::vector<ExtFloat>& weights) {
  ExtFloat sum;
  for (const ExtFloat& w : weights) sum = sum.Add(w);
  return sum;
}

size_t PickWeightedIndex(Rng* rng, const std::vector<ExtFloat>& weights) {
  PQE_CHECK(!weights.empty());
  // Renormalize by the maximum weight so the double conversions are stable.
  size_t max_idx = 0;
  for (size_t i = 1; i < weights.size(); ++i) {
    if (weights[max_idx] < weights[i]) max_idx = i;
  }
  PQE_CHECK(!weights[max_idx].IsZero());
  const double max_log = weights[max_idx].Log2();
  std::vector<double> scaled(weights.size(), 0.0);
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i].IsZero()) continue;
    const double rel = weights[i].Log2() - max_log;
    scaled[i] = rel < -512.0 ? 0.0 : std::exp2(rel);
  }
  return rng->NextDiscrete(scaled);
}

void WeightedPicker::Build(const std::vector<ExtFloat>& weights,
                           const char* context) {
  PQE_CHECK_OK(TryBuild(weights, context));
}

Status WeightedPicker::TryBuild(const std::vector<ExtFloat>& weights,
                                const char* context) {
  cum_.clear();
  total_ = 0.0;
  last_nonzero_ = 0;
  // Identical renormalization to PickWeightedIndex: scale by the maximum
  // weight so the double conversions are stable.
  PQE_ASSIGN_OR_RETURN(const size_t max_idx, MaxWeightIndex(weights, context));
  const double max_log = weights[max_idx].Log2();
  cum_.reserve(weights.size());
  last_nonzero_ = weights.size() - 1;
  // The running sum accumulates the scaled weights in index order — the
  // same operation sequence Rng::NextDiscrete performs per draw, so the
  // partial sums (and therefore every pick) match it bit for bit.
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    double scaled = 0.0;
    if (!weights[i].IsZero()) {
      const double rel = weights[i].Log2() - max_log;
      scaled = rel < -512.0 ? 0.0 : std::exp2(rel);
      PQE_CHECK(scaled >= 0.0 && std::isfinite(scaled));
      if (scaled > 0.0) last_nonzero_ = i;
    }
    acc += scaled;
    cum_.push_back(acc);
  }
  total_ = acc;
  max_log_ = max_log;
  PQE_CHECK(total_ > 0.0);
  return Status();
}

Status WeightedPicker::UpdateWeight(const std::vector<ExtFloat>& weights,
                                    size_t index) {
  static const char* kContext = "WeightedPicker::UpdateWeight";
  if (weights.size() != cum_.size()) {
    return Status::InvalidArgument(
        std::string(kContext) + ": table size " +
        std::to_string(weights.size()) + " != built size " +
        std::to_string(cum_.size()));
  }
  if (index >= weights.size()) {
    return Status::InvalidArgument(std::string(kContext) + ": index " +
                                   std::to_string(index) + " out of range");
  }
  PQE_ASSIGN_OR_RETURN(const size_t max_idx,
                       MaxWeightIndex(weights, kContext));
  const double max_log = weights[max_idx].Log2();
  if (max_log != max_log_) {
    // The renormalization scale changed: every scaled weight moves, so the
    // prefix sums before `index` are stale too — full rebuild.
    return TryBuild(weights, kContext);
  }
  // Same scale: prefix sums before `index` are exactly what a full TryBuild
  // would recompute, so resume the running sum there and replay Build's
  // summation (same formula, same order) over the suffix. The resulting
  // table is bit-identical to TryBuild over the updated weights.
  double acc = index == 0 ? 0.0 : cum_[index - 1];
  for (size_t i = index; i < weights.size(); ++i) {
    double scaled = 0.0;
    if (!weights[i].IsZero()) {
      const double rel = weights[i].Log2() - max_log;
      scaled = rel < -512.0 ? 0.0 : std::exp2(rel);
      PQE_CHECK(scaled >= 0.0 && std::isfinite(scaled));
    }
    acc += scaled;
    cum_[i] = acc;
  }
  total_ = acc;
  // Replay Build's last_nonzero_ rule over the whole table: scaled > 0 iff
  // the weight is non-zero and above the exp2 underflow cutoff (exp2 of any
  // rel >= -512 is strictly positive).
  last_nonzero_ = weights.size() - 1;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!weights[i].IsZero() && weights[i].Log2() - max_log >= -512.0) {
      last_nonzero_ = i;
    }
  }
  PQE_CHECK(total_ > 0.0);
  return Status();
}

size_t WeightedPicker::Pick(Rng* rng) const {
  PQE_CHECK(!cum_.empty());
  const double x = rng->NextDouble() * total_;
  // First index whose inclusive prefix sum exceeds x — the same index the
  // PickWeightedIndex linear scan (`first i with x < acc`) returns.
  const auto it = std::upper_bound(cum_.begin(), cum_.end(), x);
  if (it != cum_.end()) {
    return static_cast<size_t>(it - cum_.begin());
  }
  // Floating-point edge (x >= total despite NextDouble < 1): match the
  // PickWeightedIndex fallback to the last index with non-zero weight.
  return last_nonzero_;
}

void AliasPicker::Build(const std::vector<ExtFloat>& weights,
                        const char* context) {
  PQE_CHECK_OK(TryBuild(weights, context));
}

Status AliasPicker::TryBuild(const std::vector<ExtFloat>& weights,
                             const char* context) {
  prob_.clear();
  alias_.clear();
  PQE_ASSIGN_OR_RETURN(const size_t max_idx, MaxWeightIndex(weights, context));
  PQE_CHECK(weights.size() <= UINT32_MAX);  // alias_ stores 32-bit indexes
  const double max_log = weights[max_idx].Log2();
  const size_t n = weights.size();
  // Scaled weights (same max-renormalization as WeightedPicker), then
  // normalized in place so prob_[i] = n * w[i] / Σw — the Vose "column
  // height" against a uniform grid of n columns.
  prob_.resize(n, 0.0);
  alias_.resize(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double scaled = 0.0;
    if (!weights[i].IsZero()) {
      const double rel = weights[i].Log2() - max_log;
      scaled = rel < -512.0 ? 0.0 : std::exp2(rel);
    }
    prob_[i] = scaled;
    total += scaled;
  }
  PQE_CHECK(total > 0.0);
  const double norm = static_cast<double>(n) / total;
  for (size_t i = 0; i < n; ++i) prob_[i] *= norm;

  // Vose construction: pair each under-full column with an over-full donor.
  // Zero-weight columns enter `small` with height 0, get an alias, and are
  // never selected directly (frac < 0 is impossible).
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (prob_[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    large.pop_back();
    alias_[s] = l;
    // Donor keeps whatever height the under-full column did not take.
    prob_[l] = (prob_[l] + prob_[s]) - 1.0;
    (prob_[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers are full columns up to floating-point drift: they accept
  // themselves always.
  for (const uint32_t i : large) {
    prob_[i] = 1.0;
    alias_[i] = i;
  }
  for (const uint32_t i : small) {
    prob_[i] = 1.0;
    alias_[i] = i;
  }
  return Status();
}

void IndexDrawer::Prepare(Mode mode, const std::vector<ExtFloat>& weights,
                          CountStats* stats) {
  mode_ = mode;
  if (mode == Mode::kAlias) {
    alias_.Build(weights);
    if (stats != nullptr) ++stats->alias_builds;
  } else {
    picker_.Build(weights);
    if (stats != nullptr) ++stats->picker_builds;
  }
}

}  // namespace pqe
