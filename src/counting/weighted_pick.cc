#include "counting/weighted_pick.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/result.h"
#include "util/check.h"

namespace pqe {

namespace {

// Index of the maximum weight, or InvalidArgument naming `context` when the
// table is empty or all-zero (a draw from an all-zero table has no defined
// distribution).
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
  // Scaled weights (renormalized by the maximum), then normalized in place
  // so prob_[i] = n * w[i] / Σw — the Vose "column height" against a
  // uniform grid of n columns.
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

}  // namespace pqe
