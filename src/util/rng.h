#ifndef PQE_UTIL_RNG_H_
#define PQE_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>


namespace pqe {

/// Deterministic, seedable pseudo-random generator (xoshiro256**). Every
/// randomized component of the library takes an explicit Rng (or seed); there
/// is no global RNG state, so runs are reproducible.
class Rng {
 public:
  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform in [0, bound). bound must be > 0. Uses rejection to avoid
  /// modulo bias.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Fills `out[0..count)` with the next `count` raw 64-bit values — the
  /// exact words `count` successive Next() calls would return, so switching
  /// a loop between per-draw Next() and block generation never changes the
  /// stream. Batched kernels use this to amortize the out-of-line call and
  /// keep their randomness in one contiguous, cache-resident buffer.
  void FillBlock(uint64_t* out, size_t count);

  /// The uniform double in [0, 1) that NextDouble() derives from a raw
  /// word (53 mantissa bits). Lets block consumers map FillBlock output to
  /// the same doubles NextDouble() would draw.
  static double DoubleFromWord(uint64_t word) {
    return static_cast<double>(word >> 11) * 0x1.0p-53;
  }

  /// Branch-free map of a raw word to [0, bound) via the multiply-shift
  /// reduction (Lemire 2019): floor(word * bound / 2^64). Not the same
  /// value NextBounded() yields from that word, and negligibly biased for
  /// bound << 2^64 (NextBounded rejects to stay exactly uniform).
  static uint64_t BoundedFromWord(uint64_t word, uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(word) * bound) >> 64);
  }

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Seed of the `index`-th independent stream derived from `base` (golden-
  /// ratio stride — the same spacing splitmix64 uses internally, so the
  /// seeds land in distinct splitmix sequences). This is THE seed-derivation
  /// rule of the library: median-of-R repetitions and parallel sample shards
  /// all seed their own generator as Rng(Rng::DeriveSeed(seed, index)), so
  /// every stream is fixed by (seed, index) alone — never by thread count or
  /// scheduling (the determinism contract of docs/parallelism.md).
  static constexpr uint64_t DeriveSeed(uint64_t base, uint64_t index) {
    return base + 0x9e3779b97f4a7c15ULL * (index + 1);
  }

 private:
  uint64_t s_[4];
};

}  // namespace pqe

#endif  // PQE_UTIL_RNG_H_
