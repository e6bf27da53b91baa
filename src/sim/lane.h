// Partition (lane) identity for the parallel event core — split out of
// parsim.h so a domain-tagged component (ran::UeCohort) can declare and
// verify its lane affinity without depending on the whole scheduler.
#pragma once

namespace fiveg::sim {

/// Lane id of code running outside any ParSim lane (the default).
inline constexpr int kNoLane = -2;
/// Lane id of the serial control lane (global events between windows).
inline constexpr int kControlLane = -1;

/// The lane the calling thread is currently executing for: a lane index,
/// kControlLane inside a control event, or kNoLane outside ParSim
/// entirely. Domain-tagged components use this to verify they only ever
/// run on their declared partition.
[[nodiscard]] int current_lane() noexcept;

}  // namespace fiveg::sim
