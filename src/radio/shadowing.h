// Spatially correlated log-normal shadowing. The field is a deterministic
// function of (seed, position): lattice nodes get hashed Gaussian values and
// intermediate points interpolate bilinearly, giving an exponential-like
// correlation over the decorrelation distance without storing any state, so
// one field may be queried from several threads at once.
#pragma once

#include <cstdint>

#include "geo/geometry.h"

namespace fiveg::radio {

/// Standard deviation of the field (the 3GPP UMa log-normal shadowing).
inline constexpr double kShadowingSigmaDb = 6.0;
/// Lattice spacing, ≈ the decorrelation distance (3GPP suggests ~50 m for
/// UMa).
inline constexpr double kShadowingCorrDistM = 50.0;

/// Test-only perturbation knob: every ShadowingField constructed while the
/// offset is non-zero gets `kShadowingSigmaDb + offset`. Drift-detector
/// tests use it to shift a radio-layer input without touching scenario
/// code; production paths never set it. Not thread-safe — set it before
/// spawning workers (or run --jobs 1) and restore it to 0 afterwards.
void set_shadowing_sigma_offset_db(double offset_db) noexcept;

/// Deterministic correlated shadowing field.
class ShadowingField {
 public:
  explicit ShadowingField(std::uint64_t seed);

  /// Shadowing in dB at a position (positive = extra loss).
  [[nodiscard]] double at(const geo::Point& p) const noexcept;

 private:
  [[nodiscard]] double node_value(std::int64_t ix,
                                  std::int64_t iy) const noexcept;

  std::uint64_t seed_;
  double sigma_db_;
};

}  // namespace fiveg::radio
