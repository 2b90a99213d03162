// Fast, seedable pseudo-random number generation.
//
// All stochastic components of the library (weight init, hash-function
// generation, synthetic data, reservoir sampling, vanilla-sampling table
// order) draw from an explicitly seeded Rng so single-threaded runs are
// reproducible bit-for-bit. The generator is xoshiro256**, which is much
// faster than std::mt19937_64 and passes BigCrush.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "sys/common.h"

namespace slide {

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm).
/// Satisfies std::uniform_random_bit_generator so it can drive
/// std::shuffle / std::uniform_*_distribution as well.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // SplitMix64 seeding, as recommended by the xoshiro authors: avoids
    // all-zero and low-entropy states for small seeds.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
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

  /// Uniform in [0, n). Lemire's multiply-shift reduction (unbiased enough
  /// for sampling uses; n is always far below 2^32 here).
  std::uint32_t uniform(std::uint32_t n) {
    SLIDE_ASSERT(n > 0);
    return static_cast<std::uint32_t>(
        (static_cast<__uint128_t>(operator()()) * n) >> 64);
  }

  /// Uniform float in [0, 1).
  float uniform_float() {
    return static_cast<float>(operator()() >> 40) * 0x1.0p-24f;
  }

  /// Uniform double in [0, 1).
  double uniform_double() {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  /// Standard normal via Marsaglia polar method (no trig).
  float normal() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    float u, v, s;
    do {
      u = 2.0f * uniform_float() - 1.0f;
      v = 2.0f * uniform_float() - 1.0f;
      s = u * u + v * v;
    } while (s >= 1.0f || s == 0.0f);
    const float m = std::sqrt(-2.0f * std::log(s) / s);
    cached_ = v * m;
    has_cached_ = true;
    return u * m;
  }

  /// Derive an independent stream (for per-thread / per-table generators).
  Rng fork() { return Rng(operator()()); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  float cached_ = 0.0f;
  bool has_cached_ = false;
};

}  // namespace slide
