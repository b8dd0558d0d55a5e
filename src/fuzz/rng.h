// Deterministic PRNG for the fuzzer. SplitMix64 has a fixed, documented
// output sequence, so a seed reproduces the exact same spec on every
// platform and build — std::mt19937 plus distribution objects would not
// guarantee that across standard libraries. Byte-identical regeneration is
// load-bearing: corpus entries store only their seed, and the determinism
// tests diff two independent generations of the same seed.

#ifndef SRC_FUZZ_RNG_H_
#define SRC_FUZZ_RNG_H_

#include <cstdint>

namespace efeu::fuzz {

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    state_ += 0x9E3779B97F4A7C15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, n); n must be > 0.
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }

  // Uniform in [lo, hi] inclusive.
  int Range(int lo, int hi) { return lo + Below(hi - lo + 1); }

  // True with probability num/den.
  bool Chance(int num, int den) { return Below(den) < num; }

 private:
  uint64_t state_;
};

}  // namespace efeu::fuzz

#endif  // SRC_FUZZ_RNG_H_
