// Traffic traces for the trace-driven power simulation (Sec. 6.3 / Table 4):
// the paper replays captured Wireshark traces of web browsing, UHD video
// telephony and bulk file transfer through simulated radio state machines.
// We generate equivalent synthetic traces.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"

namespace fiveg::energy {

/// One application demand: `bytes` become available to transmit at `at`.
struct TrafficDemand {
  sim::Time at = 0;
  std::uint64_t bytes = 0;
};

using TrafficTrace = std::vector<TrafficDemand>;

/// Total bytes in a trace.
[[nodiscard]] std::uint64_t trace_bytes(const TrafficTrace& t) noexcept;

/// Short web page loads: 10 bursts of ~3 MB spaced 3 s apart — the
/// unsaturated, tail-dominated workload where 5G wastes the most energy.
[[nodiscard]] TrafficTrace web_browsing_trace(sim::Rng rng);

/// Frame-by-frame UHD telephony: `duration` of 30 FPS frames at
/// `bitrate_bps` with mild fluctuation.
[[nodiscard]] TrafficTrace video_telephony_trace(
    sim::Rng rng, sim::Time duration = 60 * sim::kSecond,
    double bitrate_bps = 45e6);

/// One saturated bulk transfer of `bytes` available immediately.
[[nodiscard]] TrafficTrace file_transfer_trace(
    std::uint64_t bytes = 5ull * 1000 * 1000 * 1000);

}  // namespace fiveg::energy
