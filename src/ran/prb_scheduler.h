// PRB allocation model. All users of a cell share its physical resource
// blocks; the paper finds the probe UE gets essentially all NR PRBs
// (260-264 of 264) day and night — 5G was nearly empty — while on LTE it
// gets 40-85 PRBs by day and 95-100 at night.
#pragma once

#include "radio/carrier.h"
#include "sim/rng.h"

namespace fiveg::ran {

/// Daytime vs late-night load regimes from the paper's Sec. 4.1.
enum class LoadRegime { kDay, kNight };

/// Round-robin PRB scheduler for one cell.
class PrbScheduler {
 public:
  /// `competing_users`: other active users sharing the carrier.
  PrbScheduler(radio::CarrierConfig carrier, int competing_users);

  /// PRB fraction granted to the probe UE for one scheduling epoch
  /// (jittered around the fair share).
  [[nodiscard]] double grant_fraction(sim::Rng& rng) const;

 private:
  radio::CarrierConfig carrier_;
  int competing_users_;
};

}  // namespace fiveg::ran
