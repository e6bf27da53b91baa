// Buildings: rectangular footprints with a material that sets per-wall
// penetration loss. The paper's campus has brick-and-concrete construction,
// which drives its 50.59% indoor bit-rate drop at 3.5 GHz.
#pragma once

#include <string>

#include "geo/geometry.h"

namespace fiveg::geo {

/// Wall material: penetration loss grows with carrier frequency at a
/// material-specific slope (values in line with 3GPP TR 38.901 O2I and the
/// 2.4 GHz construction-material sounding the paper cites).
enum class Material {
  kConcrete,  // campus default: heavy loss
  kBrick,
  kDrywall,   // light US-style construction, noted in the paper as lossless-ish
  kGlass,
};

/// Per-wall penetration loss in dB for a material at carrier `freq_ghz`.
[[nodiscard]] inline double wall_loss_db(Material m, double freq_ghz) noexcept {
  // Linear-in-frequency per-wall models, anchored so concrete gives
  // ~10 dB at 1.8 GHz and ~16.5 dB at 3.5 GHz — the gap that produces the
  // paper's 20% (4G) vs 51% (5G) indoor bit-rate drop.
  switch (m) {
    case Material::kConcrete:
      return 3.0 + 3.85 * freq_ghz;
    case Material::kBrick:
      return 2.0 + 3.0 * freq_ghz;
    case Material::kDrywall:
      return 1.0 + 0.8 * freq_ghz;
    case Material::kGlass:
      return 0.5 + 0.6 * freq_ghz;
  }
  return 0.0;
}

/// A building footprint.
struct Building {
  Rect footprint;
  Material material = Material::kConcrete;
  std::string name;

  [[nodiscard]] bool contains(const Point& p) const noexcept {
    return footprint.contains(p);
  }
};

}  // namespace fiveg::geo
