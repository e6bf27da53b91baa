#include "sim/rng.h"

#include <algorithm>

namespace fiveg::sim {

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// splitmix64 finaliser: decorrelates adjacent seeds before feeding the
// Mersenne Twister, whose own seeding is weak for small seed deltas.
std::uint64_t Rng::mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Rng::Rng(std::uint64_t seed) : seed_(seed), engine_(mix(seed)) {}

Rng Rng::fork(std::string_view name) const {
  return Rng(mix(seed_ ^ fnv1a(name)));
}

double Rng::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::lognormal(double mu, double sigma) {
  return std::lognormal_distribution<double>(mu, sigma)(engine_);
}

double Rng::exponential(double rate) {
  return std::exponential_distribution<double>(rate)(engine_);
}

bool Rng::bernoulli(double p) {
  return std::bernoulli_distribution(std::clamp(p, 0.0, 1.0))(engine_);
}

}  // namespace fiveg::sim
