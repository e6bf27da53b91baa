// Bursty background traffic sharing a wireline bottleneck. The paper traces
// the 5G TCP anomaly to legacy core routers whose buffers overflow
// intermittently under 5G-scale load; the overflow happens when ambient
// Internet bursts ride on top of the probe flow. This source produces
// exponentially spaced ON bursts with heavy-tailed-ish burst rates.
#pragma once

#include <cstdint>

#include "net/link.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace fiveg::net {

/// ON/OFF burst source feeding a shared link.
class CrossTraffic {
 public:
  /// Flow id stamped on every ambient packet.
  static constexpr std::uint32_t kFlowId = 9999;
  /// Mean gap between bursts, s.
  static constexpr double kMeanOffS = 0.35;
  /// Each burst's rate is drawn uniformly from [kMinRateBps, kMaxRateBps]:
  /// calibrated so UDP loss lands on Fig. 9's curve (5G >= 10x the 4G loss
  /// at matched offered fractions).
  static constexpr double kMinRateBps = 150e6;
  static constexpr double kMaxRateBps = 1300e6;
  /// Every ambient packet is a full-size frame.
  static constexpr std::uint32_t kPacketBytes = 1500;

  /// Emits into `link` (sharing its drop-tail queue with foreground flows)
  /// bursts lasting `mean_on_s` on average.
  CrossTraffic(sim::Simulator* simulator, Link* link, double mean_on_s,
               sim::Rng rng);

  /// Starts the ON/OFF process; runs until `until`.
  void start(sim::Time until);

  [[nodiscard]] std::uint64_t packets_sent() const noexcept { return sent_; }
  /// Long-run average offered load in bits/s.
  [[nodiscard]] double mean_offered_bps() const noexcept;

 private:
  void begin_off();
  void begin_on();
  void emit(double rate_bps, sim::Time burst_end);

  sim::Simulator* sim_;
  Link* link_;
  double mean_on_s_;
  sim::Rng rng_;
  sim::Time until_ = 0;
  std::uint64_t sent_ = 0;
};

}  // namespace fiveg::net
