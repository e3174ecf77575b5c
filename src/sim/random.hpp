// Deterministic pseudo-random source (xoshiro256**).
//
// Every stochastic element of the simulation (CSMA backoff, drop
// injection, workload think times) draws from an explicitly seeded Rng so
// a run is a pure function of its seed; <random> engines are avoided
// because their distributions are not specified bit-for-bit across
// standard library implementations.
#pragma once

#include <cmath>
#include <cstdint>

#include "common/assert.hpp"

namespace sim {

// splitmix64's output function: a bijective 64-bit mix.  Keyed draws
// (the engine's tie-break keys, the CSMA bus's backoff draws) hash a
// (seed, key) pair through it instead of advancing a shared stream, so
// a draw does not depend on how many other draws came first.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // splitmix64 seeding, as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      word = splitmix64(x);
      x += 0x9e3779b97f4a7c15ULL;
    }
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound).
  std::uint64_t next_below(std::uint64_t bound) {
    RELYNX_ASSERT(bound > 0);
    // Lemire's method without the rejection loop is fine here: the
    // simulator does not need perfectly unbiased draws, only
    // deterministic and well-spread ones.
    const unsigned __int128 m =
        static_cast<unsigned __int128>(next_u64()) * bound;
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Uniform in [lo, hi] inclusive.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi) {
    RELYNX_ASSERT(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  // Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  bool next_bool(double probability_true) {
    return next_double() < probability_true;
  }

  // Exponentially distributed with the given mean (for arrival processes).
  double next_exponential(double mean) {
    double u = next_double();
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  // Derive an independent stream (e.g. one per node) from this one.
  Rng fork() { return Rng(next_u64() ^ 0xa02bdbf7bb3c0a7ULL); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4] = {};
};

}  // namespace sim
