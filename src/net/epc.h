// End-to-end cellular path factories: RAN hop + fronthaul/EPC hop + wireline
// Internet hops to a server. Encodes the two architectural facts the paper
// measures: (i) the 5G flat core shaves ~20 ms of RTT off hop 2, and
// (ii) wireline buffers did not scale with 5G capacity (Table 3), which is
// where the TCP anomaly lives.
#pragma once

#include <cstdint>
#include <vector>

#include "net/link.h"
#include "net/ran_link.h"
#include "radio/carrier.h"
#include "sim/rng.h"

namespace fiveg::net {

/// Everything needed to stamp out a UE <-> server path.
struct CellularPathOptions {
  radio::Rat rat = radio::Rat::kNr;
  RanLinkOptions ran;               // hop 1
  double server_distance_km = 30.0;
  int wired_hops = 6;               // routers past the EPC (paper's Fig. 14 path has 8 hops total)
  /// Drop-tail capacity of the wireline bottleneck router: ~1.6 MB, the
  /// physical buffer behind Table 3's 5G wired estimate (26724 x 60 B).
  /// Deep enough for 4G's ~0.7 MB BDP, but ~1/3 of the 5G BDP — the
  /// mismatch the paper blames for the TCP anomaly.
  std::uint64_t bottleneck_buffer_bytes = 1638 * 1024;
  /// Queue discipline managing the metro-bottleneck buffer (drop-tail by
  /// default, matching the measured networks; the AQM experiments swap in
  /// CoDel / FQ-CoDel / RED here).
  QdiscConfig bottleneck_qdisc;
};

/// Index of the wireline bottleneck hop in the built path (where cross
/// traffic should be injected): hop 0 = RAN, hop 1 = EPC, hop 2 = metro
/// bottleneck.
inline constexpr std::size_t kBottleneckHopIndex = 2;

/// Builds the hop configs for a full UE <-> server path.
[[nodiscard]] std::vector<Link::Config> make_cellular_path(
    const CellularPathOptions& options, sim::Rng rng);

/// One-way fronthaul+core delay of hop 2 for a RAT: ~1.2 ms for the 5G
/// flat core (functions sunk into the gNB, 25 Gbps fibre) vs ~11.2 ms for
/// the legacy 4G EPC chain — a 20 ms RTT difference (Fig. 14).
[[nodiscard]] sim::Time epc_delay(radio::Rat rat) noexcept;

}  // namespace fiveg::net
