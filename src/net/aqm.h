// Queue disciplines. The paper's buffer-sizing discussion (Sec. 4.2) pits
// two fixes against each other: grow drop-tail buffers (cheap, but invites
// bufferbloat) or deploy smarter queues. This module implements the
// bufferbloat-era toolbox behind one pluggable interface: drop-tail (the
// measured status quo), CoDel (RFC 8289), FQ-CoDel (flow hashing + DRR
// across per-flow CoDel queues, RFC 8290 shape) and RED (EWMA average
// queue with min/max thresholds). Every AQM can CE-mark ECT packets
// instead of dropping (RFC 3168 ECN). A link picks a discipline and ECN;
// each discipline's tuning is the published default below, the one
// operating point every experiment runs.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "net/packet.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace fiveg::net {

enum class QdiscKind { kDropTail, kCoDel, kFqCoDel, kRed };

[[nodiscard]] std::string_view to_string(QdiscKind kind) noexcept;

// CoDel and FQ-CoDel: the RFC 8289 defaults for an acceptable standing
// sojourn (target) and the initial drop spacing (interval).
inline constexpr sim::Time kCoDelTarget = 5 * sim::kMillisecond;
inline constexpr sim::Time kCoDelInterval = 100 * sim::kMillisecond;
// FQ-CoDel: the DRR quantum is one full-size Ethernet frame (the RFC 8290
// default); 64 hash buckets are plenty for the few flows per link.
inline constexpr std::uint32_t kFqQuantumBytes = 1514;
inline constexpr std::uint32_t kFqFlows = 64;
// RED: thresholds at 15% and 45% of the buffer, drop probability 0.1 at
// the max threshold, and Floyd & Jacobson's (1993) EWMA weight w_q 0.002.
inline constexpr double kRedMinFraction = 0.15;
inline constexpr double kRedMaxFraction = 0.45;
inline constexpr double kRedMaxP = 0.1;
inline constexpr double kRedWeight = 0.002;

/// Which discipline a link runs, and whether its AQM marks instead of
/// dropping.
struct QdiscConfig {
  QdiscKind kind = QdiscKind::kDropTail;
  /// CE-mark ECT packets instead of dropping (AQM decisions only; a full
  /// buffer still tail-drops — ECN cannot conjure space).
  bool ecn = false;
};

/// Queue discipline interface used by Link. The base owns what every
/// discipline shares — its config, the byte capacity and the accounting
/// behind the getters — so a discipline supplies only its push/pop policy,
/// written with the protected helpers.
class QueueDiscipline {
 public:
  virtual ~QueueDiscipline() = default;
  QueueDiscipline(const QueueDiscipline&) = delete;
  QueueDiscipline& operator=(const QueueDiscipline&) = delete;

  /// Offers a packet at time `now`; false = dropped on entry.
  virtual bool push(Packet p, sim::Time now) = 0;

  /// Dequeues the next packet to transmit at time `now`, or nullopt when
  /// empty (AQMs may drop internally while dequeuing).
  virtual std::optional<Packet> pop(sim::Time now) = 0;

  [[nodiscard]] bool empty() const noexcept { return packets_ == 0; }
  [[nodiscard]] std::uint64_t size_packets() const noexcept {
    return packets_;
  }
  [[nodiscard]] std::uint64_t size_bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  [[nodiscard]] std::uint64_t max_depth_bytes() const noexcept {
    return max_depth_bytes_;
  }
  /// Packets CE-marked instead of dropped (0 unless ECN is enabled).
  [[nodiscard]] std::uint64_t marks() const noexcept { return marks_; }
  /// Queueing delay of the most recently popped packet (enqueue -> pop).
  [[nodiscard]] sim::Time last_sojourn() const noexcept {
    return last_sojourn_;
  }
  /// Short stable id for metric labels: "droptail", "codel", ...
  [[nodiscard]] std::string_view kind_name() const noexcept {
    return to_string(config_.kind);
  }

 protected:
  struct Entry {
    Packet packet;
    sim::Time enqueued_at;
  };
  using Fifo = std::deque<Entry>;

  /// One CoDel instance (RFC 8289): a FIFO and its dequeue state machine.
  /// CoDelQueue runs one; FQ-CoDel runs one per hash bucket.
  struct CoDelFlow {
    Fifo q;
    bool dropping = false;
    sim::Time first_above_time = 0;
    sim::Time drop_next = 0;
    std::uint32_t drop_count = 0;
    std::uint32_t last_drop_count = 0;
  };

  /// `kind` overrides config.kind, so kind_name() names the real class.
  QueueDiscipline(QdiscKind kind, const QdiscConfig& config,
                  std::uint64_t capacity_bytes);

  /// Tail-drops (false) when `p` would overflow the byte capacity;
  /// otherwise counts it in and appends it to `q`.
  bool admit(Fifo* q, Packet p, sim::Time now);
  /// Removes the head of non-empty `q`, counts it out and records its
  /// sojourn.
  Entry take(Fifo* q, sim::Time now);
  /// An AQM decision to shed `p`: with ECN on, an ECT packet is CE-marked
  /// and must still be delivered (false); anything else counts as a drop
  /// and the caller discards it (true).
  bool shed(Packet* p);
  /// Counts a drop that is not a shed (RED's forced drop); returns false.
  bool refuse();
  /// The CoDel dequeue on `f`: discards what the control law drops and
  /// returns the next packet to deliver, or nullopt once `f` runs dry.
  std::optional<Packet> codel_pop(CoDelFlow* f, sim::Time now);

  QdiscConfig config_;
  std::uint64_t capacity_bytes_;

 private:
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t marks_ = 0;
  std::uint64_t max_depth_bytes_ = 0;
  sim::Time last_sojourn_ = 0;
};

/// Builds a discipline over `capacity_bytes` of buffer. `link_name` seeds
/// RED's private drop stream so probabilistic drops are deterministic per
/// link and independent of construction order.
[[nodiscard]] std::unique_ptr<QueueDiscipline> make_qdisc(
    const QdiscConfig& config, std::uint64_t capacity_bytes,
    std::string_view link_name);

/// Parses a CLI spec like "codel", "fq_codel+ecn", "red", "droptail".
/// Returns false (out untouched) on an unknown spec.
[[nodiscard]] bool parse_qdisc_spec(std::string_view spec, QdiscConfig* out);

/// The measured status quo: a byte-bounded FIFO that tail-drops (an
/// arrival that would overflow the byte capacity is refused), plus the
/// per-packet timestamps the sojourn metrics need.
class DropTailQdisc final : public QueueDiscipline {
 public:
  DropTailQdisc(const QdiscConfig& config, std::uint64_t capacity_bytes)
      : QueueDiscipline(QdiscKind::kDropTail, config, capacity_bytes) {}

  bool push(Packet p, sim::Time now) override;
  std::optional<Packet> pop(sim::Time now) override;

 private:
  Fifo q_;
};

/// RFC 8289 CoDel on top of a byte-bounded FIFO. With `ecn` on, a
/// control-law "drop" of an ECT packet becomes a CE mark and the packet is
/// delivered; the state machine advances exactly as if it had dropped.
class CoDelQueue final : public QueueDiscipline {
 public:
  CoDelQueue(const QdiscConfig& config, std::uint64_t capacity_bytes)
      : QueueDiscipline(QdiscKind::kCoDel, config, capacity_bytes) {}

  bool push(Packet p, sim::Time now) override;
  std::optional<Packet> pop(sim::Time now) override;

 private:
  CoDelFlow flow_;
};

/// FQ-CoDel (RFC 8290 shape): packets hash by flow id into buckets, each
/// bucket runs its own CoDel state machine, and a deficit-round-robin
/// scheduler with a new-flow priority list serves the buckets. Heavy flows
/// build sojourn (and get throttled) in their own bucket; sparse flows
/// pass through untouched — the flow-isolation property the incast and
/// mixed-RTT experiments measure. The byte capacity is shared by all
/// buckets.
class FqCoDelQueue final : public QueueDiscipline {
 public:
  FqCoDelQueue(const QdiscConfig& config, std::uint64_t capacity_bytes);

  bool push(Packet p, sim::Time now) override;
  std::optional<Packet> pop(sim::Time now) override;

  /// Which bucket a flow hashes to (exposed so tests can build collision-
  /// free flow sets).
  [[nodiscard]] std::uint32_t bucket_of(std::uint32_t flow_id) const;

 private:
  // One hash bucket: its CoDel flow plus its DRR deficit.
  struct Bucket : CoDelFlow {
    int deficit = 0;
    bool queued = false;  // on new_flows_ or old_flows_
  };

  std::vector<Bucket> buckets_;
  std::deque<std::uint32_t> new_flows_;  // bucket indices, served first
  std::deque<std::uint32_t> old_flows_;
};

/// Random Early Detection (Floyd & Jacobson 1993): an EWMA of the queue
/// depth gates probabilistic early drops between a min and max threshold;
/// above max every arrival drops. The thresholds are kRedMinFraction and
/// kRedMaxFraction of the byte capacity. With `ecn` on, an early "drop" of
/// an ECT packet becomes a CE mark (forced drops above max still drop).
/// `seed` seeds the private drop stream.
class RedQueue final : public QueueDiscipline {
 public:
  RedQueue(const QdiscConfig& config, std::uint64_t capacity_bytes,
           std::uint64_t seed);

  bool push(Packet p, sim::Time now) override;
  std::optional<Packet> pop(sim::Time now) override;

  /// Current EWMA of the queue depth in bytes (for tests).
  [[nodiscard]] double avg_bytes() const noexcept { return avg_bytes_; }

 private:
  sim::Rng rng_;
  std::uint64_t min_bytes_;
  std::uint64_t max_bytes_;
  Fifo q_;
  double avg_bytes_ = 0.0;  // EWMA of the instantaneous depth
  int count_ = -1;          // arrivals since the last early drop/mark
};

}  // namespace fiveg::net
