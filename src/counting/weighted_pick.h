#ifndef PQE_COUNTING_WEIGHTED_PICK_H_
#define PQE_COUNTING_WEIGHTED_PICK_H_

#include <cstdint>
#include <vector>

#include "util/extfloat.h"
#include "util/rng.h"
#include "util/status.h"

namespace pqe {

struct CountStats;

/// Sum of extended-range weights.
ExtFloat SumExtFloats(const std::vector<ExtFloat>& weights);

/// Samples an index with probability proportional to the extended-range
/// weights (at least one must be non-zero). Weights are renormalized by the
/// maximum before conversion to double, so huge exponents are safe.
///
/// One-shot path: rescans for the maximum, converts every weight, and
/// heap-allocates a scratch vector per draw. Hot loops that draw from the
/// same distribution repeatedly should build a WeightedPicker instead.
size_t PickWeightedIndex(Rng* rng, const std::vector<ExtFloat>& weights);

/// Precomputed weighted sampler over a fixed distribution: the normalized
/// cumulative table is built once and every Pick() is one NextDouble plus a
/// binary search — no per-draw allocation, no rescans.
///
/// Draw-identical to PickWeightedIndex: for the same weights and the same
/// Rng state, Pick() consumes exactly one NextDouble and returns exactly the
/// index PickWeightedIndex would (same renormalization, same partial-sum
/// order, same floating-point edge fallback), so replacing per-draw
/// PickWeightedIndex calls with a shared picker leaves estimates
/// bit-identical (docs/performance.md).
class WeightedPicker {
 public:
  WeightedPicker() = default;
  explicit WeightedPicker(const std::vector<ExtFloat>& weights) {
    Build(weights);
  }

  /// (Re)builds the cumulative table. Reuses the table's capacity, so a
  /// picker owned by a counter's scratch state allocates only on growth.
  /// Requires at least one non-zero weight; aborts with a message naming
  /// `context` otherwise (use TryBuild for a typed error instead).
  void Build(const std::vector<ExtFloat>& weights,
             const char* context = "WeightedPicker::Build");

  /// Build() with bad input reported as a typed Status instead of an
  /// abort: InvalidArgument naming `context` (e.g. the symbol group being
  /// sampled) when `weights` is empty or all-zero. On error the picker is
  /// left empty.
  Status TryBuild(const std::vector<ExtFloat>& weights, const char* context);

  /// Draws an index ~ weights. Requires Build() was called.
  size_t Pick(Rng* rng) const;

  /// Incremental rebuild after one entry changed: `weights` is the full
  /// updated table (same size as the built one) and `index` the changed
  /// entry. When the renormalization scale (the maximum weight) is
  /// unchanged, only the prefix sums from `index` on are recomputed —
  /// O(n − index) instead of a full table scan with exp2 per entry; when
  /// the maximum changed, falls back to a full TryBuild. Either way the
  /// resulting picker state is bit-identical to TryBuild over the updated
  /// table, so draws stay draw-identical to PickWeightedIndex.
  Status UpdateWeight(const std::vector<ExtFloat>& weights, size_t index);

  size_t size() const { return cum_.size(); }
  bool empty() const { return cum_.empty(); }

 private:
  std::vector<double> cum_;  // inclusive prefix sums of the scaled weights
  double total_ = 0.0;       // == cum_.back()
  size_t last_nonzero_ = 0;  // fallback when x lands past total_ (fp edge)
  double max_log_ = 0.0;     // build-time renormalization scale (log2)
};

/// O(1)-per-draw weighted sampler: a Walker/Vose alias table with the same
/// ExtFloat max-renormalization as WeightedPicker::Build, so huge exponents
/// are safe. Each draw consumes one uniform: the integer part selects a
/// column, the fractional part decides column-vs-alias.
///
/// NOT draw-identical to PickWeightedIndex/WeightedPicker — each index is
/// still returned with exactly probability w[i]/Σw, but the uniform is
/// consumed differently, so estimates shift within their statistical
/// envelope. Used only by kernel_mode=fast (two-tier determinism contract,
/// docs/performance.md "Kernel modes"); χ²-gated against the exact
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
  /// entry point the batched kernels feed from DoubleBlock buffers.
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

/// Per-table draw dispatcher owned by a counter's scratch state: Prepare()
/// once per weight table, Draw() per sample. Every weighted draw in a
/// counter routes through here, so the kernel-mode choice — cumulative
/// picker or O(1) alias table — lives in exactly one place per counter
/// instead of at each call site.
class IndexDrawer {
 public:
  enum class Mode : uint8_t {
    kCached,  // WeightedPicker — draw-identical to PickWeightedIndex (exact)
    kAlias,   // AliasPicker — statistically equivalent (fast tier)
  };

  /// Builds the table for `weights` in `mode`, reusing capacity, and bumps
  /// `stats` (picker_builds / alias_builds) when non-null.
  void Prepare(Mode mode, const std::vector<ExtFloat>& weights,
               CountStats* stats);

  /// Draws an index ~ the prepared weights, consuming exactly one
  /// NextDouble in every mode.
  size_t Draw(Rng* rng) const {
    return mode_ == Mode::kAlias ? alias_.Pick(rng) : picker_.Pick(rng);
  }

  /// Batched entry: maps a pre-generated uniform to an index. Valid only
  /// in kAlias mode (the fast kernels are the only block consumers).
  size_t DrawFromDouble(double u) const { return alias_.PickFromDouble(u); }

 private:
  Mode mode_ = Mode::kCached;
  WeightedPicker picker_;
  AliasPicker alias_;
};

}  // namespace pqe

#endif  // PQE_COUNTING_WEIGHTED_PICK_H_
