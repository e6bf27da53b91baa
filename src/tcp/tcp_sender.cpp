#include "tcp/tcp_sender.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"

namespace fiveg::tcp {

TcpSender::TcpSender(sim::Simulator* simulator, TcpConfig config,
                     std::uint32_t flow_id,
                     std::function<void(net::Packet)> emit)
    : sim_(simulator),
      config_(config),
      flow_id_(flow_id),
      emit_(std::move(emit)),
      cc_(make_congestion_control(config.algo, config.seed)) {
  tracer_ = obs::tracer();
  fault_ = fault::runtime();
  // Only the server-stall injector lives here; skip the per-send check
  // entirely for plans that never stall.
  if (fault_ != nullptr &&
      !fault_->plan().has_kind(fault::FaultKind::kServerStall)) {
    fault_ = nullptr;
  }
  if (auto* m = obs::metrics()) {
    retx_ctr_ = &m->counter("tcp.retransmissions");
    loss_ctr_ = &m->counter("tcp.loss_episodes");
    timeout_ctr_ = &m->counter("tcp.timeouts");
    const std::string algo = to_string(config.algo);
    rtt_d_ = &m->digest("tcp.rtt_ms", {{"algo", algo}});
    rate_d_ = &m->digest("tcp.delivery_rate_mbps", {{"algo", algo}});
    if (config_.ecn) {
      // Only ECN-negotiated flows grow the metric set: non-ECN runs (all
      // golden baselines) keep an identical metric universe.
      ecn_ctr_ = &m->counter("tcp.ecn_responses", {{"algo", algo}});
    }
  }
  if (tracer_ != nullptr) {
    cwnd_track_ = "tcp.cwnd.flow" + std::to_string(flow_id_);
  }
  was_slow_start_ = cc_->in_slow_start();
}

void TcpSender::log_cwnd() {
  const double cwnd = cc_->cwnd_bytes();
  cwnd_log_.add(sim_->now(), cwnd);
  if (tracer_ == nullptr) return;
  if (cwnd != last_cwnd_traced_) {
    tracer_->counter(sim_->now(), cwnd_track_, "tcp", cwnd);
    last_cwnd_traced_ = cwnd;
  }
  const bool ss = cc_->in_slow_start();
  if (was_slow_start_ && !ss) {
    tracer_->instant(sim_->now(), "tcp.slow_start_exit", "tcp",
                     {{"flow", std::to_string(flow_id_)},
                      {"cwnd_bytes", std::to_string(cwnd)}});
  }
  was_slow_start_ = ss;
}

void TcpSender::start_bulk() {
  bulk_ = true;
  try_send();
}

void TcpSender::send_bytes(std::uint64_t bytes, std::function<void()> done) {
  app_limit_ += bytes;
  if (done) completions_.emplace_back(app_limit_, std::move(done));
  try_send();
}

std::uint64_t TcpSender::effective_window() const {
  const auto cwnd = static_cast<std::uint64_t>(cc_->cwnd_bytes());
  return std::min(cwnd, kReceiveWindowBytes);
}

bool TcpSender::data_available(std::uint64_t seq) const {
  return bulk_ || seq < app_limit_;
}

void TcpSender::try_send() {
  if (fault_ != nullptr && fault_->server_stalled()) {
    // The application stopped writing: no new data until the window ends.
    // A fully-drained flow gets no more ACK pokes, so poll for the resume
    // (single-flight, like the pacing timer).
    if (!stall_poll_pending_ && data_available(snd_nxt_)) {
      stall_poll_pending_ = true;
      sim_->schedule_in(10 * sim::kMillisecond, "fault.app_stall_poll",
                        [this] {
                          stall_poll_pending_ = false;
                          try_send();
                        });
    }
    return;
  }
  const double pacing_bps = cc_->pacing_rate_bps();
  while (data_available(snd_nxt_) &&
         bytes_in_flight() + kMssBytes <= effective_window()) {
    if (pacing_bps > 0.0 && sim_->now() < next_send_time_) {
      // Single-flight wake-up: at most one pacing timer is ever pending,
      // no matter how many ACKs poke try_send in the meantime.
      if (!pace_timer_pending_) {
        pace_timer_pending_ = true;
        sim_->schedule_at(next_send_time_, "tcp.pace", [this] {
          pace_timer_pending_ = false;
          try_send();
        });
      }
      return;
    }
    const std::uint64_t payload =
        bulk_ ? kMssBytes
              : std::min<std::uint64_t>(kMssBytes,
                                        app_limit_ - snd_nxt_);
    send_segment(snd_nxt_, /*retransmit=*/false);
    snd_nxt_ += payload;
    if (pacing_bps > 0.0) {
      const double gap_s = 8.0 * (kMssBytes + kHeaderBytes) /
                           pacing_bps;
      next_send_time_ =
          std::max(next_send_time_, sim_->now()) + sim::from_seconds(gap_s);
    }
  }
}

void TcpSender::send_segment(std::uint64_t seq, bool retransmit) {
  std::uint32_t payload = kMssBytes;
  if (!bulk_) {
    payload = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(payload, app_limit_ - seq));
    if (payload == 0) return;
  }

  net::Packet p;
  p.flow_id = flow_id_;
  p.seq = seq;
  p.size_bytes = payload + kHeaderBytes;
  p.sent_at = sim_->now();
  p.ect = config_.ecn;  // ECN-capable transport: qdiscs may mark, not drop
  emit_(std::move(p));

  if (retransmit) {
    ++retransmissions_;
    if (retx_ctr_ != nullptr) retx_ctr_->add();
    // in_flight_ stays sorted by seq (records are appended for new data
    // only), so the record lookup can binary-search — a linear scan makes
    // deep-window recovery quadratic.
    const auto it = std::lower_bound(
        in_flight_.begin(), in_flight_.end(), seq,
        [](const SegmentRecord& r, std::uint64_t s) { return r.seq < s; });
    if (it != in_flight_.end() && it->seq == seq) {
      it->sent_at = sim_->now();
      it->delivered_at_send = delivered_;
      it->delivered_time_at_send = delivered_time_;
      it->first_sent_at_send = first_sent_time_;
      it->retransmitted = true;
    }
  } else {
    // Data re-sent after a go-back-N rewind is still a retransmission for
    // Karn's rule: a straggler ACK of the earlier copy would otherwise
    // yield absurdly small RTT samples.
    const bool seen_before = seq + payload <= max_sent_seq_;
    in_flight_.push_back({seq, payload, sim_->now(), delivered_,
                          delivered_time_, first_sent_time_, seen_before});
    max_sent_seq_ = std::max(max_sent_seq_, seq + payload);
  }
  arm_rto();
}

void TcpSender::arm_rto() {
  if (rto_timer_) sim_->cancel(*rto_timer_);
  rto_timer_ = sim_->schedule_in(rtt_.rto(), "tcp.rto", [this] { on_rto(); });
}

void TcpSender::deliver(net::Packet p) {
  if (p.flow_id != flow_id_ || !p.is_ack) return;
  on_ack(p);
}

void TcpSender::on_ack(const net::Packet& ack) {
  const std::uint64_t ack_seq = ack.ack_seq;
  sack_high_ = std::max(sack_high_, ack.sack_high);
  // "Delivered" tracks the receiver's distinct-byte counter: it grows at
  // the true arrival rate even while holes hold the cumulative ACK back,
  // which keeps delivery-rate samples honest during recovery.
  if (ack.rcv_total > delivered_) {
    delivered_ = ack.rcv_total;
    delivered_time_ = sim_->now();
  }
  if (config_.ecn && ack.ece && snd_una_ >= ecn_cwr_point_) {
    // The receiver echoed a CE mark. Back off once, then ignore further
    // echoes until a full window of new data has been acked (the CWR
    // point) — the once-per-RTT discipline of RFC 3168 §6.1.2.
    ecn_cwr_point_ = snd_nxt_;
    ++ecn_responses_;
    if (ecn_ctr_ != nullptr) ecn_ctr_->add();
    if (tracer_ != nullptr) {
      tracer_->instant(sim_->now(), "tcp.ecn_backoff", "tcp",
                       {{"flow", std::to_string(flow_id_)},
                        {"snd_una", std::to_string(snd_una_)}});
    }
    cc_->on_ecn(sim_->now(), bytes_in_flight());
    log_cwnd();
  }
  if (ack_seq > snd_una_) {
    const std::uint64_t newly = ack_seq - snd_una_;
    snd_una_ = ack_seq;
    // A late ACK may outrun a go-back-N rewind of snd_nxt_.
    snd_nxt_ = std::max(snd_nxt_, snd_una_);
    dupacks_ = 0;
    rtt_.reset_backoff();

    // RTT sample from the newest fully-acked, never-retransmitted segment
    // (Karn's rule). Delivery-rate samples come from every acked segment —
    // retransmissions included — or BBR's max filter starves during
    // recovery and the bandwidth model collapses.
    sim::Time rtt_sample = 0;
    double rate_sample = 0.0;
    bool app_limited = !bulk_ && snd_nxt_ >= app_limit_;
    while (!in_flight_.empty() &&
           in_flight_.front().seq + in_flight_.front().payload <= ack_seq) {
      const SegmentRecord& r = in_flight_.front();
      // RFC delivery-rate estimation: interval is the slower of the send
      // spacing and the ACK spacing, so bursts of flushed-out-of-order
      // bytes cannot inflate the sample.
      const sim::Time send_elapsed = r.sent_at - r.first_sent_at_send;
      const sim::Time ack_elapsed = sim_->now() - r.delivered_time_at_send;
      const double interval_s =
          sim::to_seconds(std::max(send_elapsed, ack_elapsed));
      // Sub-millisecond windows (ACK compression through in-order links)
      // are too noisy to trust as bandwidth evidence.
      if (interval_s >= 0.001) {
        rate_sample =
            8.0 * static_cast<double>(delivered_ - r.delivered_at_send) /
            interval_s;
      }
      if (!r.retransmitted) rtt_sample = sim_->now() - r.sent_at;
      first_sent_time_ = r.sent_at;
      in_flight_.pop_front();
    }
    if (rtt_sample > 0) {
      rtt_.add_sample(sim_->now(), rtt_sample);
      if (rtt_d_ != nullptr) rtt_d_->observe(sim::to_millis(rtt_sample));
    }
    if (rate_d_ != nullptr && rate_sample > 0.0) {
      rate_d_->observe(rate_sample / 1e6);
    }

    if (in_recovery_ && ack_seq >= recovery_point_) {
      in_recovery_ = false;
    } else if (in_recovery_) {
      retransmit_holes();  // partial ACK: keep repairing the scoreboard
    }

    AckEvent e;
    e.now = sim_->now();
    e.rtt = rtt_sample;
    e.min_rtt = rtt_.min_rtt();
    e.acked_bytes = newly;
    e.delivered_bytes = delivered_;
    e.bytes_in_flight = bytes_in_flight();
    e.delivery_rate_bps = rate_sample;
    e.app_limited = app_limited;
    cc_->on_ack(e);
    log_cwnd();

    maybe_complete();
    if (bytes_in_flight() == 0 && !data_available(snd_nxt_)) {
      if (rto_timer_) {
        sim_->cancel(*rto_timer_);
        rto_timer_.reset();
      }
    } else {
      arm_rto();
    }
  } else if (ack_seq == snd_una_ && bytes_in_flight() > 0) {
    ++dupacks_;
    if (!in_recovery_ && dupacks_ >= kDupackThreshold) {
      enter_fast_retransmit();
    } else if (in_recovery_) {
      retransmit_holes();  // each dupack clocks out more repairs
    }
  }
  try_send();
}

void TcpSender::retransmit_holes() {
  // SACK-style pipelined repair: the receiver holds bytes up to
  // sack_high_, so everything unacked below it is a candidate hole.
  // Retransmit up to two segments per ACK (rate-halving-ish clocking).
  const std::uint64_t top = std::min(sack_high_, recovery_point_);
  std::uint64_t seq = std::max(retx_next_, snd_una_);
  if (seq >= top && snd_una_ < top &&
      sim_->now() - sweep_start_ > rtt_.smoothed_rtt()) {
    // Every hole was retransmitted once but the front one still has not
    // been ACKed after an SRTT: those repairs were themselves lost.
    // Sweep the scoreboard again.
    seq = snd_una_;
  }
  if (seq == snd_una_) sweep_start_ = sim_->now();
  int budget = 2;
  while (budget > 0 && seq < top) {
    send_segment(seq, /*retransmit=*/true);
    --budget;
    seq += kMssBytes;
  }
  retx_next_ = seq;
}

void TcpSender::enter_fast_retransmit() {
  in_recovery_ = true;
  ++fast_recoveries_;
  recovery_point_ = snd_nxt_;
  retx_next_ = snd_una_;
  dupacks_ = 0;
  if (loss_ctr_ != nullptr) loss_ctr_->add();
  if (tracer_ != nullptr) {
    tracer_->instant(sim_->now(), "tcp.loss", "tcp",
                     {{"flow", std::to_string(flow_id_)},
                      {"kind", "fast_retransmit"},
                      {"snd_una", std::to_string(snd_una_)}});
  }
  cc_->on_loss(sim_->now(), bytes_in_flight());
  log_cwnd();
  retransmit_holes();
}

void TcpSender::on_rto() {
  rto_timer_.reset();
  if (bytes_in_flight() == 0) return;
  ++timeouts_;
  if (timeout_ctr_ != nullptr) timeout_ctr_->add();
  if (tracer_ != nullptr) {
    tracer_->instant(sim_->now(), "tcp.loss", "tcp",
                     {{"flow", std::to_string(flow_id_)},
                      {"kind", "rto"},
                      {"snd_una", std::to_string(snd_una_)}});
  }
  rtt_.backoff();
  cc_->on_timeout(sim_->now());
  log_cwnd();
  in_recovery_ = false;
  dupacks_ = 0;
  // Go-back-N: everything past snd_una_ is presumed lost.
  snd_nxt_ = snd_una_;
  in_flight_.clear();
  next_send_time_ = sim_->now();
  try_send();
}

void TcpSender::maybe_complete() {
  while (!completions_.empty() && snd_una_ >= completions_.front().first) {
    auto done = std::move(completions_.front().second);
    completions_.pop_front();
    done();
  }
}

}  // namespace fiveg::tcp
