// Deterministic random number generation.
//
// Two engines:
//  * Philox4x32-10 — a counter-based PRNG (Salmon et al., SC'11). Counter
//    mode makes it trivially parallel and reproducible across thread counts:
//    stream i, counter j always yields the same value regardless of how work
//    is scheduled. Used by the RQC generator and by Born-rule sampling so
//    results are bit-stable between the CPU and virtual-GPU backends.
//  * xoshiro256** — a fast sequential engine for tests that just need noise.
//
// Both satisfy UniformRandomBitGenerator so they compose with <random>.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace qhip {

// Philox4x32-10 counter-based generator.
//
// State is (key, counter); `operator()` returns successive 32-bit lanes of
// the 128-bit blocks produced by bumping the counter. Seeding with
// (seed, stream) gives 2^64 independent streams per seed.
class Philox {
 public:
  using result_type = std::uint32_t;

  explicit Philox(std::uint64_t seed = 0, std::uint64_t stream = 0)
      : key_{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32)} {
    ctr_ = {0, 0, static_cast<std::uint32_t>(stream),
            static_cast<std::uint32_t>(stream >> 32)};
    refill();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    if (lane_ == 4) {
      bump();
      refill();
    }
    return block_[lane_++];
  }

  // Jumps directly to 128-bit block `index` of this stream. Enables
  // random access: sample k can be drawn without generating samples 0..k-1.
  void seek(std::uint64_t index) {
    ctr_[0] = static_cast<std::uint32_t>(index);
    ctr_[1] = static_cast<std::uint32_t>(index >> 32);
    refill();
  }

  // Uniform double in [0, 1) consuming two 32-bit lanes.
  double uniform() {
    const std::uint64_t hi = (*this)();
    const std::uint64_t lo = (*this)();
    const std::uint64_t v = (hi << 21) ^ lo;  // 53 significant bits
    return static_cast<double>(v & ((std::uint64_t{1} << 53) - 1)) * 0x1.0p-53;
  }

 private:
  static constexpr std::uint32_t kM0 = 0xD2511F53;
  static constexpr std::uint32_t kM1 = 0xCD9E8D57;
  static constexpr std::uint32_t kW0 = 0x9E3779B9;
  static constexpr std::uint32_t kW1 = 0xBB67AE85;

  static void round(std::array<std::uint32_t, 4>& c, std::array<std::uint32_t, 2>& k) {
    const std::uint64_t p0 = static_cast<std::uint64_t>(kM0) * c[0];
    const std::uint64_t p1 = static_cast<std::uint64_t>(kM1) * c[2];
    c = {static_cast<std::uint32_t>(p1 >> 32) ^ c[1] ^ k[0],
         static_cast<std::uint32_t>(p1),
         static_cast<std::uint32_t>(p0 >> 32) ^ c[3] ^ k[1],
         static_cast<std::uint32_t>(p0)};
    k[0] += kW0;
    k[1] += kW1;
  }

  void refill() {
    std::array<std::uint32_t, 4> c = ctr_;
    std::array<std::uint32_t, 2> k = key_;
    for (int i = 0; i < 10; ++i) round(c, k);
    block_ = c;
    lane_ = 0;
  }

  void bump() {
    if (++ctr_[0] == 0 && ++ctr_[1] == 0 && ++ctr_[2] == 0) ++ctr_[3];
  }

  std::array<std::uint32_t, 2> key_;
  std::array<std::uint32_t, 4> ctr_{};
  std::array<std::uint32_t, 4> block_{};
  int lane_ = 0;
};

// Seed of the k-th (1-based) in-circuit measurement of a run seeded with
// `seed`. Every backend draws measurement k from this seed, which is what
// makes outcomes agree between cpu and dist:N, and between hip and hip:N,
// for the same request seed.
constexpr std::uint64_t measurement_seed(std::uint64_t seed, std::uint64_t k) {
  return seed ^ (0x9E3779B97F4A7C15 * k);
}

// xoshiro256** by Blackman & Vigna (public domain reference implementation
// restructured as a C++ engine).
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 1) {
    // splitmix64 seeding, as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& s : s_) {
      x += 0x9E3779B97F4A7C15;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
      s = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

}  // namespace qhip
