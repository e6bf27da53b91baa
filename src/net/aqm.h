// Queue disciplines. The paper's buffer-sizing discussion (Sec. 4.2) pits
// two fixes against each other: grow drop-tail buffers (cheap, but invites
// bufferbloat) or deploy smarter queues. This module implements the
// bufferbloat-era toolbox behind one pluggable interface: drop-tail (the
// measured status quo), CoDel (RFC 8289), FQ-CoDel (flow hashing + DRR
// across per-flow CoDel queues, RFC 8290 shape) and RED (EWMA average
// queue with min/max thresholds). Every AQM can CE-mark ECT packets
// instead of dropping (RFC 3168 ECN).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace fiveg::net {

/// Queue discipline interface used by Link.
class QueueDiscipline {
 public:
  virtual ~QueueDiscipline() = default;

  /// Offers a packet at time `now`; false = dropped on entry.
  virtual bool push(Packet p, sim::Time now) = 0;

  /// Dequeues the next packet to transmit at time `now`, or nullopt when
  /// empty (AQMs may drop internally while dequeuing).
  virtual std::optional<Packet> pop(sim::Time now) = 0;

  [[nodiscard]] virtual bool empty() const = 0;
  [[nodiscard]] virtual std::uint64_t size_packets() const = 0;
  [[nodiscard]] virtual std::uint64_t size_bytes() const = 0;
  [[nodiscard]] virtual std::uint64_t drops() const = 0;
  [[nodiscard]] virtual std::uint64_t max_depth_bytes() const = 0;
  /// Packets CE-marked instead of dropped (0 unless ECN is enabled).
  [[nodiscard]] virtual std::uint64_t marks() const = 0;
  /// Queueing delay of the most recently popped packet (enqueue -> pop).
  [[nodiscard]] virtual sim::Time last_sojourn() const = 0;
  /// Short stable id for metric labels: "droptail", "codel", ...
  [[nodiscard]] virtual std::string_view kind_name() const = 0;
};

/// Which discipline a link runs, plus every tuning knob. One struct (not a
/// variant) so experiment sweeps can tweak a field without re-dispatching.
enum class QdiscKind { kDropTail, kCoDel, kFqCoDel, kRed };

[[nodiscard]] std::string_view to_string(QdiscKind kind) noexcept;

struct QdiscConfig {
  QdiscKind kind = QdiscKind::kDropTail;
  /// CE-mark ECT packets instead of dropping (AQM decisions only; a full
  /// buffer still tail-drops — ECN cannot conjure space).
  bool ecn = false;
  // CoDel / FQ-CoDel.
  sim::Time target = 5 * sim::kMillisecond;      // acceptable sojourn
  sim::Time interval = 100 * sim::kMillisecond;  // initial drop spacing
  // FQ-CoDel.
  std::uint32_t quantum_bytes = 1514;  // DRR quantum (one full-size frame)
  std::uint32_t flows = 64;            // hash buckets
  // RED. 0 thresholds = derive from capacity (min = 15%, max = 45%).
  std::uint64_t red_min_bytes = 0;
  std::uint64_t red_max_bytes = 0;
  double red_max_p = 0.1;      // drop probability at max threshold
  double red_weight = 0.002;   // EWMA weight for the average queue
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
  explicit DropTailQdisc(std::uint64_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  bool push(Packet p, sim::Time now) override;
  std::optional<Packet> pop(sim::Time now) override;

  [[nodiscard]] bool empty() const override { return q_.empty(); }
  [[nodiscard]] std::uint64_t size_packets() const override {
    return q_.size();
  }
  [[nodiscard]] std::uint64_t size_bytes() const override { return bytes_; }
  [[nodiscard]] std::uint64_t drops() const override { return drops_; }
  [[nodiscard]] std::uint64_t max_depth_bytes() const override {
    return max_depth_bytes_;
  }
  [[nodiscard]] std::uint64_t marks() const override { return 0; }
  [[nodiscard]] sim::Time last_sojourn() const override {
    return last_sojourn_;
  }
  [[nodiscard]] std::string_view kind_name() const override {
    return "droptail";
  }

 private:
  struct Entry {
    Packet packet;
    sim::Time enqueued_at;
  };

  std::uint64_t capacity_bytes_;
  std::deque<Entry> q_;
  std::uint64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t max_depth_bytes_ = 0;
  sim::Time last_sojourn_ = 0;
};

/// RFC 8289 CoDel on top of a byte-bounded FIFO. With `ecn` on, a
/// control-law "drop" of an ECT packet becomes a CE mark and the packet is
/// delivered; the state machine advances exactly as if it had dropped.
class CoDelQueue final : public QueueDiscipline {
 public:
  struct Config {
    sim::Time target = 5 * sim::kMillisecond;     // acceptable sojourn
    sim::Time interval = 100 * sim::kMillisecond; // initial drop spacing
    std::uint64_t capacity_bytes = 4 * 1024 * 1024;
    bool ecn = false;
  };

  CoDelQueue() : CoDelQueue(Config{}) {}
  explicit CoDelQueue(const Config& config) : config_(config) {}

  bool push(Packet p, sim::Time now) override;
  std::optional<Packet> pop(sim::Time now) override;

  [[nodiscard]] bool empty() const override { return q_.empty(); }
  [[nodiscard]] std::uint64_t size_packets() const override {
    return q_.size();
  }
  [[nodiscard]] std::uint64_t size_bytes() const override { return bytes_; }
  [[nodiscard]] std::uint64_t drops() const override { return drops_; }
  [[nodiscard]] std::uint64_t max_depth_bytes() const override {
    return max_depth_bytes_;
  }
  [[nodiscard]] std::uint64_t marks() const override { return marks_; }
  [[nodiscard]] sim::Time last_sojourn() const override {
    return last_sojourn_;
  }
  [[nodiscard]] std::string_view kind_name() const override {
    return "codel";
  }

 private:
  struct Entry {
    Packet packet;
    sim::Time enqueued_at;
  };

  [[nodiscard]] bool over_target(const Entry& e, sim::Time now) const;
  [[nodiscard]] sim::Time control_law(sim::Time t) const;
  /// True when the entry should be shed: ECT packets get CE-marked and the
  /// caller must deliver them; others are dropped (caller discards).
  [[nodiscard]] bool shed(Entry* e);

  Config config_;
  std::deque<Entry> q_;
  std::uint64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t marks_ = 0;
  std::uint64_t max_depth_bytes_ = 0;
  sim::Time last_sojourn_ = 0;

  // CoDel state machine.
  bool dropping_ = false;
  sim::Time first_above_time_ = 0;
  sim::Time drop_next_ = 0;
  std::uint32_t drop_count_ = 0;
  std::uint32_t last_drop_count_ = 0;
};

/// FQ-CoDel (RFC 8290 shape): packets hash by flow id into buckets, each
/// bucket runs its own CoDel state machine, and a deficit-round-robin
/// scheduler with a new-flow priority list serves the buckets. Heavy flows
/// build sojourn (and get throttled) in their own bucket; sparse flows
/// pass through untouched — the flow-isolation property the incast and
/// mixed-RTT experiments measure.
class FqCoDelQueue final : public QueueDiscipline {
 public:
  struct Config {
    sim::Time target = 5 * sim::kMillisecond;
    sim::Time interval = 100 * sim::kMillisecond;
    std::uint64_t capacity_bytes = 4 * 1024 * 1024;  // shared across flows
    std::uint32_t quantum_bytes = 1514;
    std::uint32_t flows = 64;
    bool ecn = false;
  };

  FqCoDelQueue() : FqCoDelQueue(Config{}) {}
  explicit FqCoDelQueue(const Config& config);

  bool push(Packet p, sim::Time now) override;
  std::optional<Packet> pop(sim::Time now) override;

  [[nodiscard]] bool empty() const override { return packets_ == 0; }
  [[nodiscard]] std::uint64_t size_packets() const override {
    return packets_;
  }
  [[nodiscard]] std::uint64_t size_bytes() const override { return bytes_; }
  [[nodiscard]] std::uint64_t drops() const override { return drops_; }
  [[nodiscard]] std::uint64_t max_depth_bytes() const override {
    return max_depth_bytes_;
  }
  [[nodiscard]] std::uint64_t marks() const override { return marks_; }
  [[nodiscard]] sim::Time last_sojourn() const override {
    return last_sojourn_;
  }
  [[nodiscard]] std::string_view kind_name() const override {
    return "fq_codel";
  }

  /// Which bucket a flow hashes to (exposed so tests can build collision-
  /// free flow sets).
  [[nodiscard]] std::uint32_t bucket_of(std::uint32_t flow_id) const;

 private:
  struct Entry {
    Packet packet;
    sim::Time enqueued_at;
  };
  // One hash bucket: its own FIFO, CoDel state and DRR deficit.
  struct Bucket {
    std::deque<Entry> q;
    std::uint64_t bytes = 0;
    int deficit = 0;
    bool queued = false;  // on new_flows_ or old_flows_
    // Per-bucket CoDel state machine.
    bool dropping = false;
    sim::Time first_above_time = 0;
    sim::Time drop_next = 0;
    std::uint32_t drop_count = 0;
    std::uint32_t last_drop_count = 0;
  };

  [[nodiscard]] sim::Time control_law(const Bucket& b, sim::Time t) const;
  /// CoDel dequeue for one bucket; nullopt when the bucket ran dry.
  std::optional<Packet> bucket_pop(Bucket* b, sim::Time now);
  [[nodiscard]] bool shed(Entry* e);

  Config config_;
  std::vector<Bucket> buckets_;
  std::deque<std::uint32_t> new_flows_;  // bucket indices, served first
  std::deque<std::uint32_t> old_flows_;
  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t marks_ = 0;
  std::uint64_t max_depth_bytes_ = 0;
  sim::Time last_sojourn_ = 0;
};

/// Random Early Detection (Floyd & Jacobson 1993): an EWMA of the queue
/// depth gates probabilistic early drops between a min and max threshold;
/// above max every arrival drops. With `ecn` on, an early "drop" of an ECT
/// packet becomes a CE mark (forced drops above max still drop).
class RedQueue final : public QueueDiscipline {
 public:
  struct Config {
    std::uint64_t capacity_bytes = 4 * 1024 * 1024;
    std::uint64_t min_bytes = 0;  // 0 = 15% of capacity
    std::uint64_t max_bytes = 0;  // 0 = 45% of capacity
    double max_p = 0.1;           // early-drop probability at max_bytes
    double weight = 0.002;        // EWMA weight
    bool ecn = false;
    std::uint64_t seed = 0x8ed;   // private drop stream
  };

  RedQueue() : RedQueue(Config{}) {}
  explicit RedQueue(const Config& config);

  bool push(Packet p, sim::Time now) override;
  std::optional<Packet> pop(sim::Time now) override;

  [[nodiscard]] bool empty() const override { return q_.empty(); }
  [[nodiscard]] std::uint64_t size_packets() const override {
    return q_.size();
  }
  [[nodiscard]] std::uint64_t size_bytes() const override { return bytes_; }
  [[nodiscard]] std::uint64_t drops() const override { return drops_; }
  [[nodiscard]] std::uint64_t max_depth_bytes() const override {
    return max_depth_bytes_;
  }
  [[nodiscard]] std::uint64_t marks() const override { return marks_; }
  [[nodiscard]] sim::Time last_sojourn() const override {
    return last_sojourn_;
  }
  [[nodiscard]] std::string_view kind_name() const override { return "red"; }

  /// Current EWMA of the queue depth in bytes (for tests).
  [[nodiscard]] double avg_bytes() const noexcept { return avg_bytes_; }

 private:
  struct Entry {
    Packet packet;
    sim::Time enqueued_at;
  };

  Config config_;
  sim::Rng rng_;
  std::deque<Entry> q_;
  std::uint64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t marks_ = 0;
  std::uint64_t max_depth_bytes_ = 0;
  sim::Time last_sojourn_ = 0;

  double avg_bytes_ = 0.0;  // EWMA of the instantaneous depth
  int count_ = -1;          // arrivals since the last early drop/mark
};

}  // namespace fiveg::net
