#include "tcp/tcp_receiver.h"

#include <utility>

namespace fiveg::tcp {

TcpReceiver::TcpReceiver(sim::Simulator* simulator, TcpConfig config,
                         std::uint32_t flow_id,
                         std::function<void(net::Packet)> emit_ack)
    : sim_(simulator),
      config_(config),
      flow_id_(flow_id),
      emit_ack_(std::move(emit_ack)) {}

void TcpReceiver::deliver(net::Packet p) {
  if (p.flow_id != flow_id_ || p.is_ack) return;

  const std::uint64_t seg_start = p.seq;
  const std::uint64_t payload = p.size_bytes > kHeaderBytes
                                    ? p.size_bytes - kHeaderBytes
                                    : 0;
  const std::uint64_t before = cum_ack_;
  if (seg_start == cum_ack_) {
    cum_ack_ += payload;
    total_accepted_ += payload;
    // Drain any buffered segments that are now contiguous.
    auto it = out_of_order_.begin();
    while (it != out_of_order_.end() && it->first <= cum_ack_) {
      if (it->first == cum_ack_) cum_ack_ += it->second;
      it = out_of_order_.erase(it);
    }
  } else if (seg_start > cum_ack_) {
    if (out_of_order_.emplace(seg_start, payload).second) {
      total_accepted_ += payload;
    }
  }  // else: duplicate of already-delivered data; just re-ACK

  if (cum_ack_ > before) {
    goodput_log_.add(sim_->now(), 8.0 * static_cast<double>(cum_ack_ - before));
  }

  highest_held_ = std::max({highest_held_, cum_ack_, seg_start + payload});

  net::Packet ack;
  ack.flow_id = flow_id_;
  ack.is_ack = true;
  ack.ack_seq = cum_ack_;
  ack.sack_high = highest_held_;  // compact SACK: the top of the scoreboard
  ack.rcv_total = total_accepted_;  // smooth "delivered" signal for rate sampling
  ack.size_bytes = 40;
  ack.sent_at = sim_->now();
  ack.echo_ts = p.sent_at;  // timestamp echo for the sender's RTT sample
  // ECN echo: a CE-marked arrival is reported back on its own ACK
  // (DCTCP-style per-packet echo; the sender applies the once-per-RTT
  // gate). Only an ECN-negotiated receiver echoes.
  ack.ece = config_.ecn && p.ce;
  if (ack.ece) ++ce_marks_seen_;
  emit_ack_(std::move(ack));
}

double TcpReceiver::mean_goodput_bps(sim::Time from, sim::Time to) const {
  if (to <= from) return 0.0;
  double bits = 0.0;
  for (const measure::TimePoint& pt : goodput_log_.points()) {
    if (pt.at >= from && pt.at <= to) bits += pt.value;
  }
  return bits / sim::to_seconds(to - from);
}

}  // namespace fiveg::tcp
