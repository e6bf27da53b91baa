// The four benchmark workloads. Each one turns --seed into its inputs
// (recorded in Outcome::inputs), then runs the library on those inputs
// alone through the shared iteration loop (iterate.h).
#pragma once

#include "common.h"

namespace perfbench {

/// Concurrent bulk TCP flows (one of each CC algorithm, seed-permuted) over
/// the standard 5G-day downlink testbed: sim + net + tcp.
Outcome run_tcp_bulk(const Options& opt);

/// Constant-bit-rate UDP flows with seeded packet sizes through an
/// fq_codel+ecn bottleneck: sim + net, no tcp.
Outcome run_udp_flood(const Options& opt);

/// A partitioned city of UE cohorts on sim::ParSim lanes: geo + radio +
/// ran + parsim, no packets.
Outcome run_city_cohort(const Options& opt);

/// The smoke tier through core::Runner (one job, ledger + store on), then
/// the store/ledger read path and the reports: core + store + report.
Outcome run_campaign_smoke(const Options& opt);

}  // namespace perfbench
