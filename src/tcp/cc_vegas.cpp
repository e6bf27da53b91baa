#include <algorithm>

#include "tcp/cc_algorithms.h"
#include "tcp/tcp_endpoint.h"

namespace fiveg::tcp {
namespace {

constexpr double kInitialCwndMss = 10.0;
constexpr double kMinCwndMss = 2.0;

}  // namespace

VegasCc::VegasCc() : cwnd_(kInitialCwndMss * kMssBytes), ssthresh_(1e18) {}

void VegasCc::on_ack(const AckEvent& e) {
  if (e.rtt <= 0) return;
  if (base_rtt_ == 0 || e.rtt < base_rtt_) base_rtt_ = e.rtt;

  // diff = (expected - actual) * baseRTT, in packets: the data parked in
  // queues along the path.
  const double cwnd_pkts = cwnd_ / kMssBytes;
  const double expected = cwnd_pkts / sim::to_seconds(base_rtt_);
  const double actual = cwnd_pkts / sim::to_seconds(e.rtt);
  diff_ = (expected - actual) * sim::to_seconds(base_rtt_);

  if (slow_start_) {
    if (diff_ > kGamma) {
      slow_start_ = false;
      ssthresh_ = cwnd_;
    } else if (e.now - last_adjust_ >= base_rtt_) {
      // Vegas doubles every *other* RTT to keep diff readable.
      cwnd_ += static_cast<double>(e.acked_bytes);
    }
    return;
  }

  // Linear adjustment once per RTT.
  if (e.now - last_adjust_ < std::max<sim::Time>(e.rtt, 1)) return;
  last_adjust_ = e.now;
  if (diff_ < kAlpha) {
    cwnd_ += kMssBytes;
  } else if (diff_ > kBeta) {
    cwnd_ = std::max(cwnd_ - kMssBytes, kMinCwndMss * kMssBytes);
  }
}

void VegasCc::on_loss(sim::Time /*now*/, std::uint64_t /*bytes_in_flight*/) {
  slow_start_ = false;
  cwnd_ = std::max(cwnd_ * 0.5, kMinCwndMss * kMssBytes);
  ssthresh_ = cwnd_;
}

void VegasCc::on_timeout(sim::Time /*now*/) {
  slow_start_ = false;
  ssthresh_ = std::max(cwnd_ / 2.0, kMinCwndMss * kMssBytes);
  cwnd_ = kMssBytes;
}

}  // namespace fiveg::tcp
