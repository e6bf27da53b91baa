// dB <-> linear conversions shared across the radio and RAN layers. These
// used to be re-implemented inline at several call sites; every caller must
// use these exact expressions so the batched and per-site link budgets stay
// bit-identical.
#pragma once

#include <cmath>

namespace fiveg::radio {

/// dB (or dBm) to linear power ratio (or mW).
[[nodiscard]] inline double db_to_linear(double db) noexcept {
  return std::pow(10.0, db / 10.0);
}

/// Linear power ratio (or mW) to dB (or dBm).
[[nodiscard]] inline double linear_to_db(double lin) noexcept {
  return 10.0 * std::log10(lin);
}

}  // namespace fiveg::radio
