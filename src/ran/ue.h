// NSA UE dual-connectivity state: LTE-only vs dual (LTE anchor + NR
// secondary), with the hysteresis that decides vertical hand-offs. The
// horizontal (A3) machinery lives in the hand-off engine; this class only
// answers "should the NR leg be added or dropped now?".
#pragma once

#include <optional>

#include "ran/nsa_signaling.h"
#include "sim/time.h"

namespace fiveg::ran {

// The ISP's NSA add/drop thresholds: add the NR leg when its best-cell
// RSRP exceeds radio::kServiceRsrpFloorDbm by this margin (avoids flapping
// at the coverage edge), drop it when RSRP falls below the floor...
inline constexpr double kNsaAddMarginDb = 5.0;
// ...and both conditions must hold for this long (B1-style
// time-to-trigger).
inline constexpr sim::Time kNsaTimeToTrigger = sim::from_millis(200);

/// Dual-connectivity controller for one UE.
class NsaUe {
 public:
  /// True while the NR secondary leg is attached.
  [[nodiscard]] bool nr_attached() const noexcept { return nr_attached_; }

  /// Feeds the best NR cell's RSRP at `at`; returns the vertical hand-off
  /// to execute now (4G-5G to add the leg, 5G-4G to drop it), if any.
  /// The caller performs the hand-off and must then call `complete()`.
  [[nodiscard]] std::optional<HandoffType> update(sim::Time at,
                                                  double best_nr_rsrp_dbm);

  /// Commits the pending vertical transition once signalling finishes.
  void complete(HandoffType t) noexcept;

  /// Radio-link failure: the NR leg (if any) is lost instantly, without
  /// signalling, and any pending dwell decision is abandoned.
  void radio_link_failure() noexcept {
    nr_attached_ = false;
    add_dwell_since_ = kNotDwelling;
    drop_dwell_since_ = kNotDwelling;
  }

 private:
  static constexpr sim::Time kNotDwelling = -1;

  bool nr_attached_ = false;
  sim::Time add_dwell_since_ = kNotDwelling;
  sim::Time drop_dwell_since_ = kNotDwelling;
};

/// Sentinel for "no dwell in progress" in nsa_step below.
inline constexpr sim::Time kNsaNotDwelling = -1;

/// Pure NSA add/drop step, shared by NsaUe and the cohort sweep (which
/// keeps the two dwell clocks per UE in flat arrays). Feeds the best NR
/// RSRP at `at` given the current attach state; advances the dwell clocks
/// (kNsaNotDwelling when idle) and returns the vertical hand-off to
/// execute now, if any. The caller owns the attach state and flips it
/// when the hand-off completes (NsaUe::complete's logic).
[[nodiscard]] std::optional<HandoffType> nsa_step(
    bool nr_attached, sim::Time& add_dwell_since, sim::Time& drop_dwell_since,
    sim::Time at, double best_nr_rsrp_dbm) noexcept;

}  // namespace fiveg::ran
