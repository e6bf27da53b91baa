#include <algorithm>

#include "tcp/cc_algorithms.h"
#include "tcp/tcp_endpoint.h"

namespace fiveg::tcp {

void VenoCc::on_ack(const AckEvent& e) {
  if (e.rtt > 0) {
    if (base_rtt_ == 0 || e.rtt < base_rtt_) base_rtt_ = e.rtt;
    const double cwnd_pkts = cwnd_ / kMssBytes;
    const double expected = cwnd_pkts / sim::to_seconds(base_rtt_);
    const double actual = cwnd_pkts / sim::to_seconds(e.rtt);
    diff_ = (expected - actual) * sim::to_seconds(base_rtt_);
  }

  if (cwnd_ < ssthresh_) {
    cwnd_ += static_cast<double>(e.acked_bytes);
    return;
  }
  if (diff_ < kBetaPackets) {
    // Available bandwidth: grow like Reno.
    cwnd_ += kMssBytes * static_cast<double>(e.acked_bytes) / cwnd_;
  } else {
    // Congestive region: grow at half pace (every other ACK's worth).
    skip_increase_ = !skip_increase_;
    if (!skip_increase_) {
      cwnd_ += kMssBytes * static_cast<double>(e.acked_bytes) / cwnd_;
    }
  }
}

void VenoCc::on_loss(sim::Time /*now*/, std::uint64_t /*bytes_in_flight*/) {
  if (diff_ < kBetaPackets) {
    // Queues were empty: the loss was likely random (wireless) — back off
    // gently, Veno's signature move.
    ssthresh_ = std::max(cwnd_ * 0.8, 2.0 * kMssBytes);
  } else {
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0 * kMssBytes);
  }
  cwnd_ = ssthresh_;
}

}  // namespace fiveg::tcp
