#include "energy/traffic_trace.h"

#include <algorithm>

namespace fiveg::energy {

std::uint64_t trace_bytes(const TrafficTrace& t) noexcept {
  std::uint64_t total = 0;
  for (const TrafficDemand& d : t) total += d.bytes;
  return total;
}

TrafficTrace web_browsing_trace(sim::Rng rng) {
  constexpr int kPages = 10;
  constexpr sim::Time kGap = 3 * sim::kSecond;
  TrafficTrace t;
  sim::Time at = 0;
  for (int i = 0; i < kPages; ++i) {
    const double mb = std::clamp(rng.normal(3.0, 1.0), 0.5, 8.0);
    t.push_back({at, static_cast<std::uint64_t>(mb * 1e6)});
    at += kGap;
  }
  return t;
}

TrafficTrace video_telephony_trace(sim::Rng rng, sim::Time duration,
                                   double bitrate_bps) {
  TrafficTrace t;
  const sim::Time frame_gap = sim::kSecond / 30;
  const double mean_frame = bitrate_bps / 8.0 / 30.0;
  for (sim::Time at = 0; at < duration; at += frame_gap) {
    const double bytes =
        std::max(2000.0, mean_frame * rng.lognormal(-0.02, 0.2));
    t.push_back({at, static_cast<std::uint64_t>(bytes)});
  }
  return t;
}

TrafficTrace file_transfer_trace(std::uint64_t bytes) {
  return {{0, bytes}};
}

}  // namespace fiveg::energy
