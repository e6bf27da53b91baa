// Connected-mode DRX mechanics: given a DRX configuration and the time of
// the last data activity, decide whether the radio front-end is awake at a
// queried instant. The energy replayer evaluates this on a fine time grid
// to integrate the jagged power traces of the paper's Fig. 23.
#pragma once

#include "ran/rrc.h"
#include "sim/time.h"

namespace fiveg::ran {

/// The radio's activity level at an instant, in decreasing power order.
enum class RadioActivity {
  kTransfer,   // actively moving data
  kTailAwake,  // in the connected tail, DRX on-duration (listening)
  kTailSleep,  // in the connected tail, DRX sleeping
  kPagingAwake,  // idle, paging occasion
  kPagingSleep,  // idle, deep sleep
};

/// Evaluates DRX occupancy within the connected tail.
///
/// `since_activity`: elapsed time since the last data transfer ended.
/// Inside `inactivity` the radio stays fully awake; afterwards it cycles
/// long C-DRX (kLongDrxCycle with kOnDuration awake) until `tail` expires
/// and RRC falls back to idle.
[[nodiscard]] RadioActivity connected_activity(const DrxConfig& drx,
                                               sim::Time since_activity);

/// Evaluates paging DRX occupancy in RRC_IDLE: awake kOnDuration out of
/// every kPagingCycle.
[[nodiscard]] RadioActivity idle_activity(sim::Time since_idle_start);

/// Fraction of time the radio is awake during the C-DRX portion of the
/// tail (the duty cycle that dominates tail energy).
[[nodiscard]] double tail_duty_cycle() noexcept;

}  // namespace fiveg::ran
