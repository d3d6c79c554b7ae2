// Deterministic pseudo-random number generation.
//
// xoshiro256** seeded via SplitMix64. Every stochastic component owns its own
// Rng stream derived from the experiment seed plus a component tag, so adding
// randomness to one component never perturbs another — a property the
// parameter-sweep benchmarks rely on.
#pragma once

#include <cstdint>

namespace sanfault::sim {

namespace detail {
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace detail

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eedf00dull) {
    std::uint64_t sm = seed;
    for (auto& w : s_) w = detail::splitmix64(sm);
  }

  std::uint64_t next() {
    const std::uint64_t result = detail::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = detail::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound == 0 returns 0.
  std::uint64_t uniform(std::uint64_t bound) {
    if (bound == 0) return 0;
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double uniform_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  bool bernoulli(double p) { return uniform_double() < p; }

 private:
  std::uint64_t s_[4];
};

}  // namespace sanfault::sim
