// Congestion-control interface and factory. The paper benchmarks five
// algorithms over 4G/5G: loss-based Reno and CUBIC, delay-based Vegas,
// hybrid Veno, and model-based BBR — all re-implemented here from their
// original papers/RFCs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/time.h"

namespace fiveg::tcp {

/// Which algorithm a flow runs.
enum class CcAlgo { kReno, kCubic, kVegas, kVeno, kBbr };

[[nodiscard]] std::string to_string(CcAlgo a);

/// Everything a congestion controller may want to know about an ACK.
struct AckEvent {
  sim::Time now = 0;
  sim::Time rtt = 0;              // RTT sample carried by this ACK (0 = none)
  sim::Time min_rtt = 0;          // sender's windowed minimum RTT
  std::uint64_t acked_bytes = 0;  // newly acknowledged by this ACK
  std::uint64_t delivered_bytes = 0;  // cumulative delivered at this point
  std::uint64_t bytes_in_flight = 0;  // after processing this ACK
  double delivery_rate_bps = 0;   // rate sample (0 = no valid sample)
  bool app_limited = false;       // sample taken while app-limited
};

/// Strategy interface; one instance per flow.
class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  /// Called for every ACK that acknowledges new data.
  virtual void on_ack(const AckEvent& e) = 0;

  /// Called once per loss-recovery episode (triple-dupack fast retransmit).
  virtual void on_loss(sim::Time now, std::uint64_t bytes_in_flight) = 0;

  /// Called at most once per RTT when the peer echoes an ECN congestion
  /// mark (ECE). RFC 3168 says to react as to a single lost packet, so the
  /// default delegates to on_loss(); algorithms whose loss response is a
  /// no-op (BBR) override with an explicit window reduction.
  virtual void on_ecn(sim::Time now, std::uint64_t bytes_in_flight) {
    on_loss(now, bytes_in_flight);
  }

  /// Called on retransmission timeout.
  virtual void on_timeout(sim::Time now) = 0;

  /// Current congestion window in bytes.
  [[nodiscard]] virtual double cwnd_bytes() const = 0;

  /// Pacing rate in bits/s; 0 means "no pacing, ack-clocked".
  [[nodiscard]] virtual double pacing_rate_bps() const { return 0.0; }

  /// True while the algorithm considers itself in its startup phase
  /// (exposed so experiments can report slow-start exit times, Fig. 8).
  [[nodiscard]] virtual bool in_slow_start() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Optional a-priori path knowledge, the paper's cited web fix: replace
/// slow-start probing with a deterministic bandwidth estimate (e.g. from
/// the radio layer's own link adaptation).
struct CcSeed {
  double rate_bps = 0;  // 0 = no hint, probe normally
  sim::Time rtt = 0;
};

/// Creates a controller; each counts its window in kMssBytes segments.
[[nodiscard]] std::unique_ptr<CongestionControl> make_congestion_control(
    CcAlgo algo, CcSeed seed = {});

}  // namespace fiveg::tcp
