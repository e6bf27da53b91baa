#include <algorithm>
#include <cmath>

#include "tcp/cc_algorithms.h"
#include "tcp/tcp_endpoint.h"

namespace fiveg::tcp {
namespace {

constexpr double kInitialCwndMss = 10.0;
constexpr double kMinCwndMss = 2.0;

}  // namespace

CubicCc::CubicCc() : cwnd_(kInitialCwndMss * kMssBytes), ssthresh_(1e18) {}

void CubicCc::enter_epoch(sim::Time now) {
  epoch_start_ = now;
  const double cwnd_mss = cwnd_ / kMssBytes;
  if (w_max_mss_ > cwnd_mss) {
    k_seconds_ = std::cbrt((w_max_mss_ - cwnd_mss) / kC);
  } else {
    k_seconds_ = 0.0;
    w_max_mss_ = cwnd_mss;
  }
  w_est_mss_ = cwnd_mss;
}

void CubicCc::on_ack(const AckEvent& e) {
  if (cwnd_ < ssthresh_) {
    cwnd_ += static_cast<double>(e.acked_bytes);
    return;
  }
  if (epoch_start_ < 0) enter_epoch(e.now);

  const double t = sim::to_seconds(e.now - epoch_start_);
  const double rtt_s = sim::to_seconds(std::max<sim::Time>(e.rtt, 1));
  // Target the cubic curve one RTT ahead.
  const double target_mss =
      kC * std::pow(t + rtt_s - k_seconds_, 3.0) + w_max_mss_;

  // Reno-friendly region: grow W_est like AIMD with beta-compensated slope.
  w_est_mss_ += 3.0 * (1.0 - kBeta) / (1.0 + kBeta) *
                (static_cast<double>(e.acked_bytes) / cwnd_);

  const double cwnd_mss = cwnd_ / kMssBytes;
  double next_mss = cwnd_mss;
  if (target_mss > cwnd_mss) {
    // Approach the target over one RTT's worth of ACKs.
    next_mss = cwnd_mss + (target_mss - cwnd_mss) *
                              (static_cast<double>(e.acked_bytes) / cwnd_);
  } else {
    next_mss = cwnd_mss + 0.01 * (static_cast<double>(e.acked_bytes) / cwnd_);
  }
  cwnd_ = std::max(next_mss, w_est_mss_) * kMssBytes;
}

void CubicCc::on_loss(sim::Time now, std::uint64_t /*bytes_in_flight*/) {
  // Fast convergence: if we never got back to w_max, release capacity.
  const double cwnd_mss = cwnd_ / kMssBytes;
  w_max_mss_ = cwnd_mss < w_max_mss_ ? cwnd_mss * (1.0 + kBeta) / 2.0
                                     : cwnd_mss;
  cwnd_ = std::max(cwnd_ * kBeta, kMinCwndMss * kMssBytes);
  ssthresh_ = cwnd_;
  epoch_start_ = -1;
  (void)now;
}

void CubicCc::on_timeout(sim::Time /*now*/) {
  w_max_mss_ = cwnd_ / kMssBytes;
  ssthresh_ = std::max(cwnd_ * kBeta, kMinCwndMss * kMssBytes);
  cwnd_ = kMssBytes;
  epoch_start_ = -1;
}

}  // namespace fiveg::tcp
