#include <algorithm>

#include "tcp/cc_algorithms.h"
#include "tcp/tcp_endpoint.h"

namespace fiveg::tcp {
namespace {

constexpr double kInitialCwndMss = 10.0;
constexpr double kMinCwndMss = 2.0;

}  // namespace

RenoCc::RenoCc() : cwnd_(kInitialCwndMss * kMssBytes), ssthresh_(1e18) {}

void RenoCc::on_ack(const AckEvent& e) {
  if (cwnd_ < ssthresh_) {
    cwnd_ += static_cast<double>(e.acked_bytes);  // slow start
  } else {
    // Congestion avoidance: ~1 MSS per RTT.
    cwnd_ += kMssBytes * kMssBytes * static_cast<double>(e.acked_bytes) /
             (cwnd_ * kMssBytes);
  }
}

void RenoCc::on_loss(sim::Time /*now*/, std::uint64_t /*bytes_in_flight*/) {
  ssthresh_ = std::max(cwnd_ / 2.0, kMinCwndMss * kMssBytes);
  cwnd_ = ssthresh_;
}

void RenoCc::on_timeout(sim::Time /*now*/) {
  ssthresh_ = std::max(cwnd_ / 2.0, kMinCwndMss * kMssBytes);
  cwnd_ = kMssBytes;  // restart from one segment
}

}  // namespace fiveg::tcp
