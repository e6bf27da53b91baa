// A bounded memo keyed on the exact bit patterns of N doubles. Coverage
// sweeps revisit the same sample points and co-sited sectors ask for the
// same mast->UE segment several times per sample, so the geometry and
// radio layers put their pure lookups behind one of these.
//
// Layout: `slots` entries (a power of two) grouped into 2-way sets, with one
// LRU byte per set. A hit returns the stored value, which is exactly what
// `compute` would return again because memoized functions are pure in their
// key; replacement evolves as a pure function of the query sequence. So
// results never depend on the hit pattern, and -0.0 and 0.0 (or distinct
// NaN payloads) are distinct keys. Not thread-safe: one owner per thread.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace fiveg::geo {

template <std::size_t N, class V>
class ExactMemo {
 public:
  using Key = std::array<double, N>;

  explicit ExactMemo(std::size_t slots) : ways_(slots), lru_(slots / 2) {
    if (slots < 2 || !std::has_single_bit(slots)) {
      throw std::invalid_argument("ExactMemo slots must be a power of two");
    }
  }

  /// The memoized value for `key`, calling `compute()` on a miss.
  template <class F>
  V get(const Key& key, F&& compute) {
    return get(key, std::forward<F>(compute), std::make_index_sequence<N>{});
  }

 private:
  using Bits = std::array<std::uint64_t, N>;
  struct Way {
    Bits key{};
    V val{};
    bool used = false;
  };

  static std::uint64_t mix(std::uint64_t h) noexcept {
    h *= 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 29);
  }

  // Expanded over an index_sequence so the hash and the key compare are
  // straight-line code: a run-time loop over the N words is not unrolled at
  // -O2 and costs the geometry hot path about 13 %.
  template <class F, std::size_t... I>
  V get(const Key& key, F&& compute, std::index_sequence<I...>) {
    const Bits bits{std::bit_cast<std::uint64_t>(key[I])...};
    std::uint64_t h = 0;
    ((h = mix(h ^ bits[I])), ...);
    const std::size_t base = h & (ways_.size() - 2);
    std::uint8_t& lru = lru_[base >> 1];
    for (std::uint8_t w = 0; w < 2; ++w) {
      const Way& way = ways_[base + w];
      if (way.used && ((way.key[I] == bits[I]) && ...)) {
        lru = static_cast<std::uint8_t>(1 - w);
        return way.val;
      }
    }
    const V val = compute();
    ways_[base + lru] = Way{bits, val, true};
    lru = static_cast<std::uint8_t>(1 - lru);
    return val;
  }

  std::vector<Way> ways_;
  std::vector<std::uint8_t> lru_;  // the way to evict next, per set
};

}  // namespace fiveg::geo
