// Deterministic pseudo-random number generation for the simulator.
//
// We implement xoshiro256** (Blackman & Vigna) seeded through splitmix64
// rather than using std::mt19937 so that:
//   * streams are cheap to fork (one per site / arrival process), keeping
//     runs reproducible regardless of event interleaving, and
//   * results are bit-identical across standard libraries, which the
//     regression tests rely on.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace hls {

/// splitmix64: used to expand a single 64-bit seed into a full xoshiro state.
/// Also usable standalone for cheap hashing of ids into stream seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit generator with 2^256-1 period.
class Rng {
 public:
  /// Seeds the four state words via splitmix64 so that any seed (including 0)
  /// yields a valid, well-mixed state.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Forks an independent stream: equivalent to seeding a fresh generator
  /// from this stream's output, so child streams do not overlap in practice.
  /// A child is identified by its place in the parent's fork order, which
  /// msg_chaos_test and fault_injection_test pin; call sites name it in a
  /// comment.
  Rng fork();

  /// Uniform 64-bit word.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [0, bound) with rejection to avoid modulo bias.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Exponential with the given rate (mean 1/rate). rate must be > 0.
  double exponential(double rate);

  /// Fills `out[0..n)` with n exponential draws, bit-identical to calling
  /// exponential(rate) n times. Batch-friendly for callers that consume
  /// draws from a private stream (e.g. arrival-gap prefetch): the loop body
  /// stays in registers/L1 instead of paying a call per draw.
  void fill_exponentials(double rate, double* out, std::size_t n);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p);

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace hls
