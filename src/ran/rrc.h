// RRC states and DRX configuration (the paper's Appendix B, Fig. 25 and
// Table 7). Under NSA, a UE climbing to the NR connected state must pass
// through the LTE state machine first, and falling back to idle re-runs the
// LTE tail — the mechanism behind the paper's doubled tail energy.
#pragma once

#include <string>

#include "sim/time.h"

namespace fiveg::ran {

/// Radio Resource Control states of the NSA UE.
enum class RrcState {
  kIdle,          // RRC_IDLE: paging DRX only
  kConnectedLte,  // RRC_CONNECTED on the LTE anchor
  kConnectedNr,   // RRC_CONNECTED with the NR leg active
  kInactive,      // RRC_INACTIVE (SA-only; modelled for the ablation)
};

[[nodiscard]] std::string to_string(RrcState s);

/// Whether `from` → `to` is a legal NSA RRC transition. Self-loops are
/// legal (re-sampling the same state). The key asymmetry: the NR leg can
/// only be added from the LTE connected state (idle/inactive UEs must camp
/// on the anchor first), which is the mechanism behind the paper's doubled
/// promotion latency. Used by fault::InvariantChecker to audit recorded
/// state trajectories under fault injection.
[[nodiscard]] constexpr bool rrc_transition_legal(RrcState from,
                                                  RrcState to) noexcept {
  if (from == to) return true;
  switch (from) {
    case RrcState::kIdle:
      return to == RrcState::kConnectedLte;
    case RrcState::kConnectedLte:
      return to == RrcState::kConnectedNr || to == RrcState::kIdle ||
             to == RrcState::kInactive;
    case RrcState::kConnectedNr:
      return to == RrcState::kConnectedLte || to == RrcState::kIdle ||
             to == RrcState::kInactive;
    case RrcState::kInactive:
      return to == RrcState::kConnectedLte || to == RrcState::kIdle;
  }
  return false;
}

/// RRC re-establishment timing after radio-link failure (TS 36.331-style
/// T310 detection + the re-establishment procedure itself).
/// kReestablishBound is the invariant ceiling: a UE whose serving cell dies
/// must be camped on a live cell again within detection + procedure of
/// each retry round.
inline constexpr sim::Time kRlfDetection = sim::from_millis(200);  // T310
inline constexpr sim::Time kReestablishProcedure = sim::from_millis(150);
inline constexpr sim::Time kReestablishBound =
    kRlfDetection + kReestablishProcedure;

// Table 7 of the paper: DRX / promotion / tail timers as observed via XCAL
// on the measured network. These are the same on both RATs...
inline constexpr sim::Time kPagingCycle = sim::from_millis(1280);   // Tidle
inline constexpr sim::Time kOnDuration = sim::from_millis(10);      // Ton
inline constexpr sim::Time kLtePromotion = sim::from_millis(623);   // TLTE_pro
inline constexpr sim::Time kLteToNr = sim::from_millis(1238);       // T4r_5r
inline constexpr sim::Time kNrPromotion = sim::from_millis(1681);   // TNR_pro
inline constexpr sim::Time kLongDrxCycle = sim::from_millis(320);   // Tlong

/// ...and these differ per RAT (lte_drx() and nr_nsa_drx() below).
struct DrxConfig {
  sim::Time inactivity = sim::from_millis(100);  // Tinac (80/100)
  sim::Time tail = sim::from_millis(10720);      // Ttail
};

/// LTE timer set (tail 10.72 s).
[[nodiscard]] DrxConfig lte_drx() noexcept;

/// NR NSA timer set (tail 21.44 s — the LTE tail runs again after the NR
/// one, per the paper's Fig. 23 showcase).
[[nodiscard]] DrxConfig nr_nsa_drx() noexcept;

}  // namespace fiveg::ran
