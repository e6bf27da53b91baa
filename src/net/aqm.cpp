#include "net/aqm.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace fiveg::net {

std::string_view to_string(QdiscKind kind) noexcept {
  switch (kind) {
    case QdiscKind::kDropTail:
      return "droptail";
    case QdiscKind::kCoDel:
      return "codel";
    case QdiscKind::kFqCoDel:
      return "fq_codel";
    case QdiscKind::kRed:
      return "red";
  }
  return "droptail";
}

bool parse_qdisc_spec(std::string_view spec, QdiscConfig* out) {
  QdiscConfig cfg;
  if (spec.size() >= 4 && spec.substr(spec.size() - 4) == "+ecn") {
    cfg.ecn = true;
    spec.remove_suffix(4);
  }
  if (spec == "droptail") {
    cfg.kind = QdiscKind::kDropTail;
  } else if (spec == "codel") {
    cfg.kind = QdiscKind::kCoDel;
  } else if (spec == "fq_codel") {
    cfg.kind = QdiscKind::kFqCoDel;
  } else if (spec == "red") {
    cfg.kind = QdiscKind::kRed;
  } else {
    return false;
  }
  *out = cfg;
  return true;
}

std::unique_ptr<QueueDiscipline> make_qdisc(const QdiscConfig& config,
                                            std::uint64_t capacity_bytes,
                                            std::string_view link_name) {
  switch (config.kind) {
    case QdiscKind::kDropTail:
      return std::make_unique<DropTailQdisc>(capacity_bytes);
    case QdiscKind::kCoDel: {
      CoDelQueue::Config c;
      c.target = config.target;
      c.interval = config.interval;
      c.capacity_bytes = capacity_bytes;
      c.ecn = config.ecn;
      return std::make_unique<CoDelQueue>(c);
    }
    case QdiscKind::kFqCoDel: {
      FqCoDelQueue::Config c;
      c.target = config.target;
      c.interval = config.interval;
      c.capacity_bytes = capacity_bytes;
      c.quantum_bytes = config.quantum_bytes;
      c.flows = config.flows;
      c.ecn = config.ecn;
      return std::make_unique<FqCoDelQueue>(c);
    }
    case QdiscKind::kRed: {
      RedQueue::Config c;
      c.capacity_bytes = capacity_bytes;
      c.min_bytes = config.red_min_bytes;
      c.max_bytes = config.red_max_bytes;
      c.max_p = config.red_max_p;
      c.weight = config.red_weight;
      c.ecn = config.ecn;
      // A per-link fork keeps RED's probabilistic drops independent of
      // every model stream and of link construction order.
      c.seed = sim::Rng(c.seed).fork(std::string("red.") +
                                     std::string(link_name)).seed();
      return std::make_unique<RedQueue>(c);
    }
  }
  return std::make_unique<DropTailQdisc>(capacity_bytes);
}

// --- DropTailQdisc ---------------------------------------------------------

bool DropTailQdisc::push(Packet p, sim::Time now) {
  if (bytes_ + p.size_bytes > capacity_bytes_) {
    ++drops_;
    return false;
  }
  bytes_ += p.size_bytes;
  max_depth_bytes_ = std::max(max_depth_bytes_, bytes_);
  q_.push_back({std::move(p), now});
  return true;
}

std::optional<Packet> DropTailQdisc::pop(sim::Time now) {
  if (q_.empty()) return std::nullopt;
  Entry e = std::move(q_.front());
  q_.pop_front();
  bytes_ -= e.packet.size_bytes;
  last_sojourn_ = now - e.enqueued_at;
  return std::move(e.packet);
}

// --- CoDelQueue ------------------------------------------------------------

bool CoDelQueue::push(Packet p, sim::Time now) {
  if (bytes_ + p.size_bytes > config_.capacity_bytes) {
    ++drops_;
    return false;
  }
  bytes_ += p.size_bytes;
  max_depth_bytes_ = std::max(max_depth_bytes_, bytes_);
  q_.push_back({std::move(p), now});
  return true;
}

bool CoDelQueue::over_target(const Entry& e, sim::Time now) const {
  return now - e.enqueued_at > config_.target;
}

sim::Time CoDelQueue::control_law(sim::Time t) const {
  // interval / sqrt(drop_count): drops accelerate while congestion holds.
  return t + static_cast<sim::Time>(
                 static_cast<double>(config_.interval) /
                 std::sqrt(static_cast<double>(std::max(drop_count_, 1u))));
}

bool CoDelQueue::shed(Entry* e) {
  if (config_.ecn && e->packet.ect) {
    // RFC 3168: signal instead of shoot. The state machine advances as if
    // the packet had dropped, but the bytes still reach the receiver.
    e->packet.ce = true;
    ++marks_;
    return false;
  }
  ++drops_;
  return true;
}

std::optional<Packet> CoDelQueue::pop(sim::Time now) {
  while (!q_.empty()) {
    Entry e = std::move(q_.front());
    q_.pop_front();
    bytes_ -= e.packet.size_bytes;
    last_sojourn_ = now - e.enqueued_at;

    const bool above = over_target(e, now);
    if (!dropping_) {
      if (!above) {
        first_above_time_ = 0;
        return std::move(e.packet);
      }
      if (first_above_time_ == 0) {
        first_above_time_ = now + config_.interval;
        return std::move(e.packet);
      }
      if (now < first_above_time_) return std::move(e.packet);
      // Sojourn has exceeded target for a full interval: enter dropping.
      dropping_ = true;
      drop_count_ = drop_count_ > last_drop_count_ + 1 &&
                            now - drop_next_ < 8 * config_.interval
                        ? drop_count_ - last_drop_count_
                        : 1;
      drop_next_ = control_law(now);
      last_drop_count_ = drop_count_;
      if (shed(&e)) continue;
      return std::move(e.packet);  // CE-marked instead of dropped
    }

    // Dropping state.
    if (!above) {
      dropping_ = false;
      first_above_time_ = 0;
      return std::move(e.packet);
    }
    if (now >= drop_next_) {
      ++drop_count_;
      drop_next_ = control_law(drop_next_);
      if (shed(&e)) continue;
      return std::move(e.packet);  // CE-marked instead of dropped
    }
    return std::move(e.packet);
  }
  if (q_.empty()) {
    dropping_ = false;
    first_above_time_ = 0;
  }
  return std::nullopt;
}

// --- FqCoDelQueue ----------------------------------------------------------

FqCoDelQueue::FqCoDelQueue(const Config& config)
    : config_(config), buckets_(std::max(config.flows, 1u)) {}

std::uint32_t FqCoDelQueue::bucket_of(std::uint32_t flow_id) const {
  // Knuth multiplicative hash: spreads small consecutive flow ids without
  // needing a keyed hash (there is no adversary inside the simulation).
  return (flow_id * 2654435761u) % static_cast<std::uint32_t>(buckets_.size());
}

bool FqCoDelQueue::push(Packet p, sim::Time now) {
  if (bytes_ + p.size_bytes > config_.capacity_bytes) {
    // Linux sheds from the fattest flow on overflow; dropping the arrival
    // is simpler and deterministic, and the AQM keeps queues far below
    // capacity in every scenario we run.
    ++drops_;
    return false;
  }
  const std::uint32_t idx = bucket_of(p.flow_id);
  Bucket& b = buckets_[idx];
  bytes_ += p.size_bytes;
  ++packets_;
  max_depth_bytes_ = std::max(max_depth_bytes_, bytes_);
  b.bytes += p.size_bytes;
  b.q.push_back({std::move(p), now});
  if (!b.queued) {
    // A flow that was idle re-enters through the priority list with a
    // fresh quantum: sparse flows jump the heavy ones.
    b.queued = true;
    b.deficit = static_cast<int>(config_.quantum_bytes);
    new_flows_.push_back(idx);
  }
  return true;
}

sim::Time FqCoDelQueue::control_law(const Bucket& b, sim::Time t) const {
  return t + static_cast<sim::Time>(
                 static_cast<double>(config_.interval) /
                 std::sqrt(static_cast<double>(std::max(b.drop_count, 1u))));
}

bool FqCoDelQueue::shed(Entry* e) {
  if (config_.ecn && e->packet.ect) {
    e->packet.ce = true;
    ++marks_;
    return false;
  }
  ++drops_;
  return true;
}

std::optional<Packet> FqCoDelQueue::bucket_pop(Bucket* b, sim::Time now) {
  // The per-bucket CoDel dequeue: identical state machine to CoDelQueue,
  // but sojourn builds per flow, so only the flow at fault gets throttled.
  while (!b->q.empty()) {
    Entry e = std::move(b->q.front());
    b->q.pop_front();
    b->bytes -= e.packet.size_bytes;
    bytes_ -= e.packet.size_bytes;
    --packets_;
    last_sojourn_ = now - e.enqueued_at;

    const bool above = now - e.enqueued_at > config_.target;
    if (!b->dropping) {
      if (!above) {
        b->first_above_time = 0;
        return std::move(e.packet);
      }
      if (b->first_above_time == 0) {
        b->first_above_time = now + config_.interval;
        return std::move(e.packet);
      }
      if (now < b->first_above_time) return std::move(e.packet);
      b->dropping = true;
      b->drop_count = b->drop_count > b->last_drop_count + 1 &&
                              now - b->drop_next < 8 * config_.interval
                          ? b->drop_count - b->last_drop_count
                          : 1;
      b->drop_next = control_law(*b, now);
      b->last_drop_count = b->drop_count;
      if (shed(&e)) continue;
      return std::move(e.packet);
    }
    if (!above) {
      b->dropping = false;
      b->first_above_time = 0;
      return std::move(e.packet);
    }
    if (now >= b->drop_next) {
      ++b->drop_count;
      b->drop_next = control_law(*b, b->drop_next);
      if (shed(&e)) continue;
      return std::move(e.packet);
    }
    return std::move(e.packet);
  }
  b->dropping = false;
  b->first_above_time = 0;
  return std::nullopt;
}

std::optional<Packet> FqCoDelQueue::pop(sim::Time now) {
  while (true) {
    const bool from_new = !new_flows_.empty();
    std::deque<std::uint32_t>& list = from_new ? new_flows_ : old_flows_;
    if (list.empty()) return std::nullopt;
    const std::uint32_t idx = list.front();
    Bucket& b = buckets_[idx];
    if (b.deficit <= 0) {
      // Quantum exhausted: recharge and rotate to the back of the old
      // list (DRR proper).
      b.deficit += static_cast<int>(config_.quantum_bytes);
      list.pop_front();
      old_flows_.push_back(idx);
      continue;
    }
    std::optional<Packet> p = bucket_pop(&b, now);
    if (!p) {
      // Bucket ran dry. A new flow parks on the old list first (RFC 8290:
      // it must survive one rotation before leaving, or a sparse flow
      // that sends exactly one packet per quantum keeps "new" priority
      // forever); an old flow leaves the scheduler.
      list.pop_front();
      if (from_new) {
        old_flows_.push_back(idx);
      } else {
        b.queued = false;
      }
      continue;
    }
    b.deficit -= static_cast<int>(p->size_bytes);
    return p;
  }
}

// --- RedQueue --------------------------------------------------------------

RedQueue::RedQueue(const Config& config)
    : config_(config), rng_(config.seed) {
  if (config_.min_bytes == 0) {
    config_.min_bytes =
        static_cast<std::uint64_t>(0.15 * static_cast<double>(
                                              config_.capacity_bytes));
  }
  if (config_.max_bytes == 0) {
    config_.max_bytes =
        static_cast<std::uint64_t>(0.45 * static_cast<double>(
                                              config_.capacity_bytes));
  }
}

bool RedQueue::push(Packet p, sim::Time now) {
  // EWMA of the instantaneous depth, updated per arrival. (The classic
  // idle-time correction is omitted: arrivals on an idle link find
  // avg ~ 0 anyway at these weights, and the omission keeps the estimator
  // trivially deterministic.)
  avg_bytes_ = (1.0 - config_.weight) * avg_bytes_ +
               config_.weight * static_cast<double>(bytes_);

  if (bytes_ + p.size_bytes > config_.capacity_bytes) {
    ++drops_;  // physical tail drop: ECN cannot conjure buffer space
    return false;
  }
  const auto min_th = static_cast<double>(config_.min_bytes);
  const auto max_th = static_cast<double>(config_.max_bytes);
  if (avg_bytes_ >= max_th) {
    // Above max the estimator says sustained congestion: force a drop
    // even for ECT traffic (RFC 3168 Sec. 19.1 guidance).
    ++drops_;
    count_ = 0;
    return false;
  }
  if (avg_bytes_ > min_th) {
    ++count_;
    const double pb =
        config_.max_p * (avg_bytes_ - min_th) / (max_th - min_th);
    // Spread early decisions out (Floyd & Jacobson's 1/(1 - count*pb)
    // correction makes inter-decision gaps uniform, not geometric).
    const double pa = pb / std::max(1.0 - static_cast<double>(count_) * pb,
                                    1e-9);
    if (rng_.bernoulli(std::min(pa, 1.0))) {
      count_ = 0;
      if (config_.ecn && p.ect) {
        p.ce = true;
        ++marks_;
        // marked arrivals still enqueue below
      } else {
        ++drops_;
        return false;
      }
    }
  } else {
    count_ = -1;
  }
  bytes_ += p.size_bytes;
  max_depth_bytes_ = std::max(max_depth_bytes_, bytes_);
  q_.push_back({std::move(p), now});
  return true;
}

std::optional<Packet> RedQueue::pop(sim::Time now) {
  if (q_.empty()) return std::nullopt;
  Entry e = std::move(q_.front());
  q_.pop_front();
  bytes_ -= e.packet.size_bytes;
  last_sojourn_ = now - e.enqueued_at;
  return std::move(e.packet);
}

}  // namespace fiveg::net
