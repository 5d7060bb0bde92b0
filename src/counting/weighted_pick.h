#ifndef PQE_COUNTING_WEIGHTED_PICK_H_
#define PQE_COUNTING_WEIGHTED_PICK_H_

#include <cstdint>
#include <vector>

#include "util/extfloat.h"
#include "util/rng.h"
#include "util/status.h"

namespace pqe {

/// Sum of extended-range weights.
ExtFloat SumExtFloats(const std::vector<ExtFloat>& weights);

/// O(1)-per-draw weighted sampler: a Walker/Vose alias table over
/// extended-range weights, renormalized by the maximum weight before the
/// conversion to double, so huge exponents are safe. Each draw consumes one
/// uniform: the integer part selects a column, the fractional part decides
/// column-vs-alias. Every weighted pick of the samplers (counters,
/// Karp–Luby) draws from one of these; χ²-gated against the exact
/// proportions in fast_kernels_test.
class AliasPicker {
 public:
  AliasPicker() = default;
  explicit AliasPicker(const std::vector<ExtFloat>& weights) {
    Build(weights);
  }

  /// (Re)builds the alias table, reusing capacity. Requires at least one
  /// non-zero weight; aborts with a message naming `context` otherwise.
  void Build(const std::vector<ExtFloat>& weights,
             const char* context = "AliasPicker::Build");

  /// Build() with bad input reported as InvalidArgument naming `context`.
  /// On error the picker is left empty.
  Status TryBuild(const std::vector<ExtFloat>& weights, const char* context);

  /// Draws an index ~ weights, consuming one NextDouble.
  size_t Pick(Rng* rng) const { return PickFromDouble(rng->NextDouble()); }

  /// Maps one uniform u ∈ [0, 1) to an index ~ weights — the block-RNG
  /// entry point the batched kernels feed from Rng::DoubleFromWord.
  size_t PickFromDouble(double u) const {
    const double scaled = u * static_cast<double>(prob_.size());
    size_t col = static_cast<size_t>(scaled);
    // u can round up to size() at the top of the range.
    if (col >= prob_.size()) col = prob_.size() - 1;
    const double frac = scaled - static_cast<double>(col);
    return frac < prob_[col] ? col : alias_[col];
  }

  size_t size() const { return prob_.size(); }
  bool empty() const { return prob_.empty(); }

 private:
  std::vector<double> prob_;     // acceptance threshold per column, in [0,1]
  std::vector<uint32_t> alias_;  // index taken when the column rejects
};

}  // namespace pqe

#endif  // PQE_COUNTING_WEIGHTED_PICK_H_
