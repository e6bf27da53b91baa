// Seeded random-number generation for experiments. Every stochastic model in
// the library draws through an `Rng`, and substreams are derived by name so
// that adding a new consumer never perturbs the draws of existing ones.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>

namespace fiveg::sim {

/// 64-bit FNV-1a over a string: the key of named substreams (Rng::fork)
/// and the ledger and store checksums. Not cryptographic.
[[nodiscard]] std::uint64_t fnv1a(std::string_view s) noexcept;

/// Deterministic random source wrapping a 64-bit Mersenne Twister with the
/// distribution helpers the models need.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Derives an independent substream keyed by `name`. Forking the same
  /// (seed, name) pair always produces an identical stream, regardless of
  /// how many draws have been made from the parent.
  [[nodiscard]] Rng fork(std::string_view name) const;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Normal (Gaussian) draw.
  [[nodiscard]] double normal(double mean, double stddev);

  /// Log-normal draw parameterised by the underlying normal.
  [[nodiscard]] double lognormal(double mu, double sigma);

  /// Exponential draw with the given rate (events per unit).
  [[nodiscard]] double exponential(double rate);

  /// True with probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p);

  /// Raw 64-bit draw (for shuffles and hashing-style uses).
  [[nodiscard]] std::uint64_t next_u64() { return engine_(); }

  /// The seed this stream was created with.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  static std::uint64_t mix(std::uint64_t x) noexcept;

  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace fiveg::sim
