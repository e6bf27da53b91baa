// Helpers shared by the layer benchmarks (bench_*.cpp): wall-clock timing
// of a rep, the median over reps, and the FNV-1a fold behind integer
// checksums.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace fiveg::bench {

using Clock = std::chrono::steady_clock;

/// Wall-clock seconds elapsed since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The middle element of `v` after sorting (the upper median for an even
/// count). `v` must be non-empty.
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// 64-bit FNV-1a over the little-endian bytes of each added word.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
};

}  // namespace fiveg::bench
