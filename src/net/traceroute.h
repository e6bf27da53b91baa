// Traceroute over a PathNetwork: repeated per-hop probes (UDP, minimum
// payload, exactly the paper's method) aggregated into per-hop RTT stats,
// plus the paper's "max-min delay" in-network buffer estimator.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "measure/stats.h"
#include "net/path.h"
#include "sim/simulator.h"

namespace fiveg::net {

/// RTT statistics for probes bouncing at one hop.
struct HopRtt {
  std::size_t hop = 0;             // 1-based hop index
  measure::RunningStats rtt_ms;    // over all replies received
  int lost = 0;                    // probes with no reply
};

/// Asynchronous traceroute: `reps` probes per hop, spaced `gap` apart,
/// hops probed concurrently round-robin (like `traceroute -q`).
class Traceroute {
 public:
  using Done = std::function<void(std::vector<HopRtt>)>;

  Traceroute(sim::Simulator* simulator, PathNetwork* path, int reps,
             sim::Time gap);

  /// Starts probing; `done` fires after every probe has answered or the
  /// per-probe timeout (1 s) has expired.
  void run(Done done);

 private:
  void send_round(int round);
  void finish_if_done();

  sim::Simulator* sim_;
  PathNetwork* path_;
  int reps_;
  sim::Time gap_;
  std::vector<HopRtt> results_;
  int outstanding_ = 0;
  bool all_sent_ = false;
  Done done_;
};

/// The paper's buffer estimator: buffered packets ~= (RTTmax - RTTmin) * C
/// / packet size, with C the assumed 1 Gbps path capacity and the 60-byte
/// probe packets.
[[nodiscard]] double estimate_buffer_packets(
    const measure::RunningStats& rtt_ms) noexcept;

}  // namespace fiveg::net
