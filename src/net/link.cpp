#include "net/link.h"

#include <string>
#include <utility>

#include "obs/obs.h"

namespace fiveg::net {
namespace {

// While blocked (hand-off outage) or rate-starved, poll again this often.
constexpr sim::Time kBlockedRetry = sim::from_millis(1);

}  // namespace

Link::Link(sim::Simulator* simulator, Config config, PacketSink* sink)
    : sim_(simulator),
      config_(std::move(config)),
      qdisc_(make_qdisc(config_.qdisc, config_.queue_bytes, config_.name)),
      pipe_(simulator, "net.link_deliver", sink) {
  tracer_ = obs::tracer();
  fault_ = fault::runtime();
  // Cut-through needs the transmit end on pop, and nobody to watch the
  // transmission: no per-event fault hooks, no trace, whose point is to
  // show each event that ran, and no metrics, which count every event (an
  // observed simulator keeps the event-per-transmit path and its speed).
  cut_through_ = !config_.rate_fn && !config_.extra_delay_fn &&
                 !config_.blocked_fn && config_.rate_bps > 0.0 &&
                 fault_ == nullptr && tracer_ == nullptr &&
                 obs::metrics() == nullptr && !sim_->observed();
  if (fault_ != nullptr) {
    // One private drop stream per link name: injected loss draws never
    // interleave with (or shift) any model stream, and the per-name fork
    // keeps the draw sequence independent of link construction order.
    fault_rng_ = std::make_unique<sim::Rng>(
        sim::Rng(fault_->seed()).fork("fault.link." + config_.name));
  }
  if (auto* m = obs::metrics()) {
    // The link name is a proper dimension, not a name suffix: canonical
    // `net.queue.drops{link=ran-nr}` groups all links under one KPI family.
    drops_ctr_ = &m->counter("net.queue.drops", {{"link", config_.name}});
    if (fault_ != nullptr) {
      fault_drops_ctr_ =
          &m->counter("fault.link_drops", {{"link", config_.name}});
    }
    queue_hwm_ = &m->gauge("net.queue.hwm_bytes", {{"link", config_.name}});
    sojourn_ms_ =
        &m->digest("net.queue.sojourn_ms", {{"link", config_.name}});
    if (config_.qdisc.kind != QdiscKind::kDropTail) {
      // AQM runs additionally break drops/marks out per discipline, so a
      // sweep over qdiscs lands each variant on its own labelled series.
      const std::string qd(qdisc_->kind_name());
      qdisc_drops_ctr_ = &m->counter(
          "net.qdisc.drops", {{"link", config_.name}, {"qdisc", qd}});
      qdisc_marks_ctr_ = &m->counter(
          "net.qdisc.marks", {{"link", config_.name}, {"qdisc", qd}});
    }
  }
}

void Link::sync_qdisc_stats() {
  const std::uint64_t drops = qdisc_->drops();
  if (drops != drops_synced_) {
    const std::uint64_t n = drops - drops_synced_;
    drops_synced_ = drops;
    if (drops_ctr_ != nullptr) drops_ctr_->add(n);
    if (qdisc_drops_ctr_ != nullptr) qdisc_drops_ctr_->add(n);
    if (tracer_ != nullptr) {
      tracer_->instant(sim_->now(), "net.queue_drop", "net",
                       {{"link", config_.name}, {"count", std::to_string(n)}});
    }
  }
  const std::uint64_t marks = qdisc_->marks();
  if (marks != marks_synced_) {
    const std::uint64_t n = marks - marks_synced_;
    marks_synced_ = marks;
    if (qdisc_marks_ctr_ != nullptr) qdisc_marks_ctr_->add(n);
    if (tracer_ != nullptr) {
      tracer_->instant(sim_->now(), "net.queue_mark", "net",
                       {{"link", config_.name}, {"count", std::to_string(n)}});
    }
  }
}

double Link::current_rate_bps() const {
  return config_.rate_fn ? config_.rate_fn() : config_.rate_bps;
}

Link::~Link() {
  // The simulator keeps a pointer to a live claim's holder: drop it, so a
  // number taken later for the delivery instant does not call back here.
  if (cut_pending_) {
    sim_->release_instant(busy_until_ + config_.prop_delay, this);
  }
}

void Link::set_sink(PacketSink* sink) {
  if (cut_pending_ && !sim_->passed(busy_until_, tx_seq_)) {
    sim_->release_instant(busy_until_ + config_.prop_delay, this);
    revoke_early_number();
  }
  pipe_.set_sink(sink);
}

void Link::revoke_early_number() {
  tx_packet_ = pipe_.take_back();
  cut_pending_ = false;
  if (transmitting_) {
    sim_->uncover();  // its pending net.link_tx now counts for itself
  } else {
    transmitting_ = true;
    sim_->schedule_taken(busy_until_, tx_seq_, "net.link_tx",
                         [this] { finish_transmit(); }, /*covered=*/false);
  }
}

void Link::send(Packet p) {
  ++offered_packets_;
  if (fault_ != nullptr) {
    const double loss = fault_->link_loss(config_.name);
    if (loss > 0.0 && fault_rng_->bernoulli(loss)) {
      ++fault_dropped_packets_;
      if (fault_drops_ctr_ != nullptr) fault_drops_ctr_->add();
      return;
    }
  }
  const bool accepted = qdisc_->push(std::move(p), sim_->now());
  sync_qdisc_stats();
  if (!accepted) return;  // dropped on entry
  if (queue_hwm_ != nullptr) {
    queue_hwm_->update_max(static_cast<double>(queue_bytes()));
  }
  if (transmitting_) return;
  if (cut_pending_) {
    if (!sim_->passed(busy_until_, tx_seq_)) {
      // Still serialising the cut-through packet: its transmit end has to
      // run after all, to start this one. The packet's delivery already
      // counts for it in the pending set.
      transmitting_ = true;
      quiet_ = false;
      sim_->schedule_taken(busy_until_, tx_seq_, "net.link_tx",
                           [this] { finish_transmit(); }, /*covered=*/true);
      return;
    }
    settle_cut_through();
  }
  try_transmit();
}

void Link::try_transmit() {
  if (qdisc_->empty()) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  if (config_.blocked_fn && config_.blocked_fn()) {
    // Outage: head-of-line blocks; queue keeps absorbing arrivals.
    sim_->schedule_in(kBlockedRetry, "net.link_blocked_poll",
                      [this] { try_transmit(); });
    return;
  }
  const double rate = current_rate_bps();
  if (rate <= 0.0) {
    sim_->schedule_in(kBlockedRetry, "net.link_blocked_poll",
                      [this] { try_transmit(); });
    return;
  }
  // An AQM may shed (or CE-mark) part of its backlog while dequeuing.
  std::optional<Packet> popped = qdisc_->pop(sim_->now());
  sync_qdisc_stats();
  if (!popped) {
    transmitting_ = false;
    return;
  }
  if (sojourn_ms_ != nullptr) {
    sojourn_ms_->observe(sim::to_millis(qdisc_->last_sojourn()));
  }
  ++in_transit_packets_;
  const double bits = 8.0 * static_cast<double>(popped->size_bytes);
  const auto tx_time = static_cast<sim::Time>(
      bits / rate * static_cast<double>(sim::kSecond));
  const sim::Time tx_end = sim_->now() + tx_time;
  const sim::Time deliver_at = tx_end + config_.prop_delay;
  if (cut_through_ && quiet_ && qdisc_->empty() &&
      pipe_.sink() != nullptr && sim_->claimable(deliver_at)) {
    // Nothing queued behind the packet: its transmit end would only hand
    // it to the pipe, so that happens now and the event is elided. The
    // delivery takes its number now instead of at the transmit end; the
    // claim revokes all this if another number is taken for the same
    // delivery instant before then. (An eligible link's delivery times
    // only grow, so the pipe delivers at deliver_at exactly.)
    transmitting_ = false;
    cut_pending_ = true;
    busy_until_ = tx_end;
    tx_seq_ = sim_->elide(tx_end);
    cut_bytes_ = popped->size_bytes;
    pipe_.push(deliver_at, std::move(*popped));
    sim_->claim_instant(deliver_at, tx_end, tx_seq_, this);
    return;
  }
  tx_packet_ = std::move(*popped);
  sim_->schedule_in(tx_time, "net.link_tx", [this] { finish_transmit(); });
}

void Link::settle_cut_through() noexcept {
  cut_pending_ = false;
  --in_transit_packets_;
  ++delivered_packets_;
  delivered_bytes_ += cut_bytes_;
}

void Link::finish_transmit() {
  if (cut_through_) quiet_ = qdisc_->empty();
  if (cut_pending_) {
    // A cut-through packet's transmit end, scheduled after all: the packet
    // is already in the pipe, and this event only starts the next one.
    sim_->uncover();
    settle_cut_through();
    try_transmit();
    return;
  }
  sim::Time delay = config_.prop_delay;
  if (config_.extra_delay_fn) {
    delay += config_.extra_delay_fn(sim_->now(), tx_packet_);
  }
  if (fault_ != nullptr) delay += fault_->link_extra_delay(config_.name);
  --in_transit_packets_;
  ++delivered_packets_;
  delivered_bytes_ += tx_packet_.size_bytes;
  if (pipe_.sink() != nullptr) {
    // In-order delivery: per-packet jitter (HARQ retransmissions) delays
    // followers too, exactly like an RLC reordering buffer would.
    pipe_.push(sim_->now() + delay, std::move(tx_packet_));
  }
  try_transmit();
}

}  // namespace fiveg::net
