#include "net/aqm.h"

#include <algorithm>
#include <cmath>
#include <string>
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
      break;
    case QdiscKind::kCoDel:
      return std::make_unique<CoDelQueue>(config, capacity_bytes);
    case QdiscKind::kFqCoDel:
      return std::make_unique<FqCoDelQueue>(config, capacity_bytes);
    case QdiscKind::kRed:
      // A per-link fork keeps RED's probabilistic drops independent of
      // every model stream and of link construction order.
      return std::make_unique<RedQueue>(
          config, capacity_bytes,
          sim::Rng(0x8ed).fork("red." + std::string(link_name)).seed());
  }
  return std::make_unique<DropTailQdisc>(config, capacity_bytes);
}

// --- QueueDiscipline -------------------------------------------------------

QueueDiscipline::QueueDiscipline(QdiscKind kind, const QdiscConfig& config,
                                 std::uint64_t capacity_bytes)
    : config_(config), capacity_bytes_(capacity_bytes) {
  config_.kind = kind;
}

bool QueueDiscipline::admit(Fifo* q, Packet p, sim::Time now) {
  if (bytes_ + p.size_bytes > capacity_bytes_) return refuse();
  ++packets_;
  bytes_ += p.size_bytes;
  max_depth_bytes_ = std::max(max_depth_bytes_, bytes_);
  q->push_back({std::move(p), now});
  return true;
}

QueueDiscipline::Entry QueueDiscipline::take(Fifo* q, sim::Time now) {
  Entry e = std::move(q->front());
  q->pop_front();
  --packets_;
  bytes_ -= e.packet.size_bytes;
  last_sojourn_ = now - e.enqueued_at;
  return e;
}

bool QueueDiscipline::shed(Packet* p) {
  if (config_.ecn && p->ect) {
    // RFC 3168: signal instead of shoot. The AQM's state advances as if
    // the packet had dropped, but the bytes still reach the receiver.
    p->ce = true;
    ++marks_;
    return false;
  }
  ++drops_;
  return true;
}

bool QueueDiscipline::refuse() {
  ++drops_;
  return false;
}

namespace {

// interval / sqrt(drop_count) after `t`: drops accelerate while congestion
// holds.
sim::Time control_law(sim::Time t, sim::Time interval,
                      std::uint32_t drop_count) {
  return t + static_cast<sim::Time>(
                 static_cast<double>(interval) /
                 std::sqrt(static_cast<double>(std::max(drop_count, 1u))));
}

}  // namespace

std::optional<Packet> QueueDiscipline::codel_pop(CoDelFlow* f, sim::Time now) {
  const sim::Time interval = kCoDelInterval;
  while (!f->q.empty()) {
    Entry e = take(&f->q, now);
    const bool above = now - e.enqueued_at > kCoDelTarget;
    if (!f->dropping) {
      if (!above) {
        f->first_above_time = 0;
        return std::move(e.packet);
      }
      if (f->first_above_time == 0) {
        f->first_above_time = now + interval;
        return std::move(e.packet);
      }
      if (now < f->first_above_time) return std::move(e.packet);
      // Sojourn has exceeded target for a full interval: enter dropping.
      f->dropping = true;
      f->drop_count = f->drop_count > f->last_drop_count + 1 &&
                              now - f->drop_next < 8 * interval
                          ? f->drop_count - f->last_drop_count
                          : 1;
      f->drop_next = control_law(now, interval, f->drop_count);
      f->last_drop_count = f->drop_count;
      if (shed(&e.packet)) continue;
      return std::move(e.packet);  // CE-marked instead of dropped
    }

    // Dropping state.
    if (!above) {
      f->dropping = false;
      f->first_above_time = 0;
      return std::move(e.packet);
    }
    if (now >= f->drop_next) {
      ++f->drop_count;
      f->drop_next = control_law(f->drop_next, interval, f->drop_count);
      if (shed(&e.packet)) continue;
      return std::move(e.packet);  // CE-marked instead of dropped
    }
    return std::move(e.packet);
  }
  f->dropping = false;
  f->first_above_time = 0;
  return std::nullopt;
}

// --- DropTailQdisc ---------------------------------------------------------

bool DropTailQdisc::push(Packet p, sim::Time now) {
  return admit(&q_, std::move(p), now);
}

std::optional<Packet> DropTailQdisc::pop(sim::Time now) {
  if (q_.empty()) return std::nullopt;
  return take(&q_, now).packet;
}

// --- CoDelQueue ------------------------------------------------------------

bool CoDelQueue::push(Packet p, sim::Time now) {
  return admit(&flow_.q, std::move(p), now);
}

std::optional<Packet> CoDelQueue::pop(sim::Time now) {
  return codel_pop(&flow_, now);
}

// --- FqCoDelQueue ----------------------------------------------------------

FqCoDelQueue::FqCoDelQueue(const QdiscConfig& config,
                           std::uint64_t capacity_bytes)
    : QueueDiscipline(QdiscKind::kFqCoDel, config, capacity_bytes),
      buckets_(kFqFlows) {}

std::uint32_t FqCoDelQueue::bucket_of(std::uint32_t flow_id) const {
  // Knuth multiplicative hash: spreads small consecutive flow ids without
  // needing a keyed hash (there is no adversary inside the simulation).
  return (flow_id * 2654435761u) % static_cast<std::uint32_t>(buckets_.size());
}

bool FqCoDelQueue::push(Packet p, sim::Time now) {
  const std::uint32_t idx = bucket_of(p.flow_id);
  Bucket& b = buckets_[idx];
  // Linux sheds from the fattest flow on overflow; dropping the arrival is
  // simpler and deterministic, and the AQM keeps queues far below capacity
  // in every scenario we run.
  if (!admit(&b.q, std::move(p), now)) return false;
  if (!b.queued) {
    // A flow that was idle re-enters through the priority list with a
    // fresh quantum: sparse flows jump the heavy ones.
    b.queued = true;
    b.deficit = static_cast<int>(kFqQuantumBytes);
    new_flows_.push_back(idx);
  }
  return true;
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
      b.deficit += static_cast<int>(kFqQuantumBytes);
      list.pop_front();
      old_flows_.push_back(idx);
      continue;
    }
    // Sojourn builds per bucket, so only the flow at fault gets throttled.
    std::optional<Packet> p = codel_pop(&b, now);
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

RedQueue::RedQueue(const QdiscConfig& config, std::uint64_t capacity_bytes,
                   std::uint64_t seed)
    : QueueDiscipline(QdiscKind::kRed, config, capacity_bytes),
      rng_(seed),
      min_bytes_(static_cast<std::uint64_t>(
          kRedMinFraction * static_cast<double>(capacity_bytes))),
      max_bytes_(static_cast<std::uint64_t>(
          kRedMaxFraction * static_cast<double>(capacity_bytes))) {}

bool RedQueue::push(Packet p, sim::Time now) {
  // EWMA of the instantaneous depth, updated per arrival. (The classic
  // idle-time correction is omitted: arrivals on an idle link find
  // avg ~ 0 anyway at these weights, and the omission keeps the estimator
  // trivially deterministic.)
  avg_bytes_ = (1.0 - kRedWeight) * avg_bytes_ +
               kRedWeight * static_cast<double>(size_bytes());

  if (size_bytes() + p.size_bytes > capacity_bytes_) {
    return refuse();  // physical tail drop: ECN cannot conjure buffer space
  }
  const auto min_th = static_cast<double>(min_bytes_);
  const auto max_th = static_cast<double>(max_bytes_);
  if (avg_bytes_ >= max_th) {
    // Above max the estimator says sustained congestion: force a drop
    // even for ECT traffic (RFC 3168 Sec. 19.1 guidance).
    count_ = 0;
    return refuse();
  }
  if (avg_bytes_ > min_th) {
    ++count_;
    const double pb =
        kRedMaxP * (avg_bytes_ - min_th) / (max_th - min_th);
    // Spread early decisions out (Floyd & Jacobson's 1/(1 - count*pb)
    // correction makes inter-decision gaps uniform, not geometric).
    const double pa = pb / std::max(1.0 - static_cast<double>(count_) * pb,
                                    1e-9);
    if (rng_.bernoulli(std::min(pa, 1.0))) {
      count_ = 0;
      if (shed(&p)) return false;  // a CE-marked arrival still enqueues
    }
  } else {
    count_ = -1;
  }
  return admit(&q_, std::move(p), now);
}

std::optional<Packet> RedQueue::pop(sim::Time now) {
  if (q_.empty()) return std::nullopt;
  return take(&q_, now).packet;
}

}  // namespace fiveg::net
