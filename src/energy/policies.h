// Radio power-management policies compared in Table 4: the stock LTE and
// NR-NSA state machines, an Oracle with perfect sleep scheduling, and the
// paper's proposed dynamic 4G/5G mode switching.
#pragma once

#include <string>

#include "radio/carrier.h"
#include "sim/time.h"

namespace fiveg::energy {

/// Which radio/policy serves the traffic.
enum class RadioModel {
  kLteOnly,        // legacy 4G path
  kNrNsa,          // stock 5G NSA state machine
  kNrOracle,       // NSA with perfect sleep scheduling inside the DRX tail
  kDynamicSwitch,  // the paper's proposal: camp on LTE, escalate to NR
  kNrSa,           // future SA: direct NR promotion, single tail,
                   // RRC_INACTIVE fast reconnects (paper's Appendix B)
};

[[nodiscard]] std::string to_string(RadioModel m);

/// Promotion delay from idle for a model (Table 7's ran::kLtePromotion or
/// ran::kNrPromotion).
[[nodiscard]] sim::Time promotion_delay(RadioModel m) noexcept;

/// RAT a freshly promoted connection starts on.
[[nodiscard]] radio::Rat initial_rat(RadioModel m) noexcept;

}  // namespace fiveg::energy
