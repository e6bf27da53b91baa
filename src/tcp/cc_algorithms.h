// Concrete congestion-control implementations. Exposed as classes (rather
// than hidden behind the factory) so tests can poke at their internals'
// observable behaviour directly.
#pragma once

#include <array>
#include <cstdint>
#include <deque>

#include "tcp/congestion_control.h"

namespace fiveg::tcp {

/// NewReno: slow start + AIMD congestion avoidance (RFC 5681/6582 shape).
class RenoCc : public CongestionControl {
 public:
  RenoCc();

  void on_ack(const AckEvent& e) override;
  void on_loss(sim::Time now, std::uint64_t bytes_in_flight) override;
  void on_timeout(sim::Time now) override;
  [[nodiscard]] double cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] bool in_slow_start() const override {
    return cwnd_ < ssthresh_;
  }
  [[nodiscard]] std::string name() const override { return "reno"; }

 protected:
  double cwnd_;
  double ssthresh_;
};

/// CUBIC (Ha, Rhee, Xu 2008): cubic window growth keyed to time since the
/// last loss, with a Reno-friendly floor.
class CubicCc : public CongestionControl {
 public:
  CubicCc();

  void on_ack(const AckEvent& e) override;
  void on_loss(sim::Time now, std::uint64_t bytes_in_flight) override;
  void on_timeout(sim::Time now) override;
  [[nodiscard]] double cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] bool in_slow_start() const override {
    return cwnd_ < ssthresh_;
  }
  [[nodiscard]] std::string name() const override { return "cubic"; }

 private:
  void enter_epoch(sim::Time now);

  static constexpr double kBeta = 0.7;  // multiplicative decrease
  static constexpr double kC = 0.4;     // cubic scaling (MSS/s^3)

  double cwnd_;
  double ssthresh_;
  double w_max_mss_ = 0.0;     // window before the last reduction, in MSS
  sim::Time epoch_start_ = -1;
  double k_seconds_ = 0.0;     // time to regrow to w_max
  double w_est_mss_ = 0.0;     // Reno-friendly estimate
};

/// Vegas (Brakmo & Peterson 1994): keeps the backlog diff = (expected -
/// actual) * baseRTT between alpha and beta packets.
class VegasCc : public CongestionControl {
 public:
  VegasCc();

  void on_ack(const AckEvent& e) override;
  void on_loss(sim::Time now, std::uint64_t bytes_in_flight) override;
  void on_timeout(sim::Time now) override;
  [[nodiscard]] double cwnd_bytes() const override { return cwnd_; }
  [[nodiscard]] bool in_slow_start() const override { return slow_start_; }
  [[nodiscard]] std::string name() const override { return "vegas"; }

  /// Current backlog estimate in packets (exposed for Veno and tests).
  [[nodiscard]] double backlog_packets() const noexcept { return diff_; }

 protected:
  static constexpr double kAlpha = 2.0;
  static constexpr double kBeta = 4.0;
  static constexpr double kGamma = 1.0;

  double cwnd_;
  double ssthresh_;
  bool slow_start_ = true;
  sim::Time base_rtt_ = 0;   // minimum observed RTT
  double diff_ = 0.0;        // backlog estimate, packets
  sim::Time last_adjust_ = 0;  // adjust once per RTT
};

/// Veno (Fu & Liew 2003): Reno whose loss response consults the Vegas
/// backlog — random (non-congestive) losses only shrink the window to 0.8x.
class VenoCc : public RenoCc {
 public:
  void on_ack(const AckEvent& e) override;
  void on_loss(sim::Time now, std::uint64_t bytes_in_flight) override;
  [[nodiscard]] std::string name() const override { return "veno"; }

 private:
  static constexpr double kBetaPackets = 3.0;

  sim::Time base_rtt_ = 0;
  double diff_ = 0.0;
  bool skip_increase_ = false;  // in congestive region, grow every other ack round
};

/// BBR v1 (Cardwell et al. 2016): model-based; paces at the bottleneck
/// bandwidth estimate and ignores packet loss.
class BbrCc : public CongestionControl {
 public:
  explicit BbrCc(CcSeed seed = {});

  void on_ack(const AckEvent& e) override;
  void on_loss(sim::Time now, std::uint64_t bytes_in_flight) override;
  void on_ecn(sim::Time now, std::uint64_t bytes_in_flight) override;
  void on_timeout(sim::Time now) override;
  [[nodiscard]] double cwnd_bytes() const override;
  [[nodiscard]] double pacing_rate_bps() const override;
  [[nodiscard]] bool in_slow_start() const override {
    return mode_ == Mode::kStartup;
  }
  [[nodiscard]] std::string name() const override { return "bbr"; }

  /// Current bottleneck-bandwidth estimate, bits/s (for tests/plots).
  [[nodiscard]] double btl_bw_bps() const;

 private:
  enum class Mode { kStartup, kDrain, kProbeBw, kProbeRtt };

  void update_round(const AckEvent& e);
  void update_btl_bw(const AckEvent& e);
  void advance_machine(const AckEvent& e);
  [[nodiscard]] double bdp_bytes(double gain) const;

  static constexpr double kHighGain = 2.885;
  static constexpr std::array<double, 8> kPacingCycle = {1.25, 0.75, 1, 1,
                                                         1, 1, 1, 1};

  Mode mode_ = Mode::kStartup;
  double pacing_gain_ = kHighGain;
  double cwnd_gain_ = kHighGain;

  // Windowed-max bottleneck bandwidth over the last 10 rounds: a monotone
  // deque of (round, bw) candidates, bandwidth strictly decreasing from
  // the front (the max) to the back (the newest sample).
  std::deque<std::pair<std::uint64_t, double>> bw_samples_;
  std::uint64_t round_ = 0;
  sim::Time round_start_ = 0;

  sim::Time rt_prop_ = 0;
  sim::Time rt_prop_stamp_ = 0;

  // Startup plateau detection.
  double full_bw_ = 0.0;
  int full_bw_rounds_ = 0;
  std::uint64_t last_plateau_check_round_ = 0;

  // ProbeBW cycling / ProbeRTT bookkeeping.
  std::size_t cycle_index_ = 0;
  sim::Time cycle_stamp_ = 0;
  sim::Time probe_rtt_done_ = 0;
  Mode mode_before_probe_rtt_ = Mode::kProbeBw;

  // ECN response: a temporary cap on the model-derived window (BBR's loss
  // response is a no-op, so CE marks need their own lever). 0 = inactive;
  // expires after one RTprop, checked on the next ACK.
  double ecn_cap_bytes_ = 0.0;
  sim::Time ecn_cap_until_ = 0;
};

}  // namespace fiveg::tcp
