#include "net/link.h"

#include <stdexcept>
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

void Link::send(Packet p) {
  // Domain-tagged links refuse traffic injected from a foreign partition
  // (see Config::domain): such a packet would mutate this lane's queue
  // state concurrently with its own window.
  if (config_.domain != sim::kNoLane &&
      sim::current_lane() != config_.domain) {
    std::string msg = "net: link '";
    msg += config_.name;
    msg += "' pinned to lane ";
    msg += std::to_string(config_.domain);
    msg += " offered a packet on lane ";
    msg += std::to_string(sim::current_lane());
    throw std::logic_error(msg);
  }
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
  if (!transmitting_) try_transmit();
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
  tx_packet_ = std::move(*popped);
  if (sojourn_ms_ != nullptr) {
    sojourn_ms_->observe(sim::to_millis(qdisc_->last_sojourn()));
  }
  ++in_transit_packets_;
  const double bits = 8.0 * static_cast<double>(tx_packet_.size_bytes);
  const auto tx_time = static_cast<sim::Time>(
      bits / rate * static_cast<double>(sim::kSecond));
  sim_->schedule_in(tx_time, "net.link_tx", [this] { finish_transmit(); });
}

void Link::finish_transmit() {
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
