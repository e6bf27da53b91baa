#include "net/epc.h"

#include <string>

namespace fiveg::net {
namespace {

// Fibre propagation, one way: ~5 us/km in glass with a 2x route factor
// (real Chinese backbone routes are far from great circles).
constexpr double kFiberUsPerKm = 5.0 * 2.0;

// The metro bottleneck's 1 Gbps tier, and the over-provisioned EPC and
// core routers' buffers and capacity.
constexpr double kBottleneckCapacityBps = 1e9;
constexpr double kCoreCapacityBps = 10e9;
constexpr std::uint64_t kCoreBufferBytes = 4 * 1024 * 1024;

}  // namespace

sim::Time epc_delay(radio::Rat rat) noexcept {
  return rat == radio::Rat::kNr ? sim::from_millis(1.2)
                                : sim::from_millis(11.2);
}

std::vector<Link::Config> make_cellular_path(const CellularPathOptions& options,
                                             sim::Rng rng) {
  std::vector<Link::Config> hops;

  // Hop 1: the radio access link.
  hops.push_back(make_ran_link_config(options.ran, rng.fork("ran")));

  // Hop 2: fronthaul + cellular core (the flat-architecture divide).
  Link::Config epc;
  epc.name = "epc";
  epc.rate_bps = options.rat == radio::Rat::kNr ? 25e9 : 10e9;
  epc.prop_delay = epc_delay(options.rat);
  epc.queue_bytes = kCoreBufferBytes;
  hops.push_back(epc);

  // Wireline hops: the first is the metro bottleneck (1 Gbps tier with the
  // legacy buffer), the rest are over-provisioned core routers that split
  // the geographic distance.
  const int n = std::max(1, options.wired_hops);
  const double per_hop_us =
      options.server_distance_km * kFiberUsPerKm / static_cast<double>(n);
  for (int i = 0; i < n; ++i) {
    Link::Config w;
    const bool bottleneck = i == 0;
    w.name = bottleneck ? "metro-bottleneck" : "core-" + std::to_string(i);
    w.rate_bps = bottleneck ? kBottleneckCapacityBps : kCoreCapacityBps;
    w.queue_bytes =
        bottleneck ? options.bottleneck_buffer_bytes : kCoreBufferBytes;
    if (bottleneck) w.qdisc = options.bottleneck_qdisc;
    // Router processing/forwarding floor plus the distance share.
    w.prop_delay = sim::from_millis(0.6) +
                   static_cast<sim::Time>(per_hop_us * sim::kMicrosecond);
    hops.push_back(w);
  }
  return hops;
}

}  // namespace fiveg::net
