// A simplex link: serialisation at a (possibly time-varying) rate, a
// pluggable queue discipline (drop-tail by default; CoDel / FQ-CoDel /
// RED for the AQM experiments), propagation delay, optional per-packet
// extra delay (HARQ retransmissions) and an optional outage predicate
// (hand-off interruptions). Two Links back-to-back make a duplex hop.
//
// Packets never ride inside simulator events: the one being serialised
// sits in a tx slot, the ones propagating in a net::DelayLine, and each
// link has at most one pending net.link_tx and one pending
// net.link_deliver event, both capturing only `this`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "fault/fault.h"
#include "net/aqm.h"
#include "net/delay_line.h"
#include "net/packet.h"
#include "sim/lane.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace fiveg::net {

/// One direction of a network hop.
class Link {
 public:
  struct Config {
    double rate_bps = 1e9;                    // fixed rate when rate_fn empty
    std::function<double()> rate_fn;          // dynamic rate (RAN links)
    sim::Time prop_delay = sim::from_millis(0.1);
    std::uint64_t queue_bytes = 512 * 1024;   // buffer capacity
    // Which discipline manages the buffer (default: drop-tail, the
    // measured status quo — every golden baseline assumes it).
    QdiscConfig qdisc;
    // Per-packet extra delivery delay (HARQ retransmissions); sees the
    // link's simulated time and the packet, so the model can stamp its
    // trace events and scale block error rate with size.
    std::function<sim::Time(sim::Time now, const Packet&)> extra_delay_fn;
    std::function<bool()> blocked_fn;         // true while link is in outage
    std::string name = "link";
    // Partition affinity (sim::ParSim lane index; sim::kNoLane =
    // unpinned). A pinned link verifies on every send() that it is
    // executing on its declared lane — cross-partition packets must go
    // through ParSim::send with the lookahead delay, never through a
    // direct sink call into a foreign lane's link.
    int domain = sim::kNoLane;
  };

  /// `sink` receives delivered packets; may be changed later.
  Link(sim::Simulator* simulator, Config config, PacketSink* sink = nullptr);

  void set_sink(PacketSink* sink) noexcept { pipe_.set_sink(sink); }

  /// Offers a packet: queued for transmission or dropped by the qdisc.
  void send(Packet p);

  /// Instantaneous transmit rate in bits/s.
  [[nodiscard]] double current_rate_bps() const;

  // --- statistics ---
  [[nodiscard]] std::uint64_t delivered_packets() const noexcept {
    return delivered_packets_;
  }
  [[nodiscard]] std::uint64_t delivered_bytes() const noexcept {
    return delivered_bytes_;
  }
  [[nodiscard]] std::uint64_t dropped_packets() const noexcept {
    return qdisc_->drops();
  }
  [[nodiscard]] std::uint64_t max_queue_bytes() const noexcept {
    return qdisc_->max_depth_bytes();
  }
  [[nodiscard]] std::uint64_t queue_bytes() const noexcept {
    return qdisc_->size_bytes();
  }
  [[nodiscard]] std::uint64_t queue_packets() const noexcept {
    return qdisc_->size_packets();
  }
  // Packet-conservation ledger (see fault::InvariantChecker): every packet
  // offered to send() is exactly one of fault-dropped, queue-dropped,
  // delivered, still queued, or in flight between pop and delivery.
  // CE-marked packets are a sub-population of the delivered/queued/
  // in-transit buckets — marked means signalled, never lost.
  [[nodiscard]] std::uint64_t offered_packets() const noexcept {
    return offered_packets_;
  }
  [[nodiscard]] std::uint64_t fault_dropped_packets() const noexcept {
    return fault_dropped_packets_;
  }
  [[nodiscard]] std::uint64_t in_transit_packets() const noexcept {
    return in_transit_packets_;
  }
  [[nodiscard]] std::uint64_t marked_packets() const noexcept {
    return qdisc_->marks();
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  void try_transmit();
  void finish_transmit();
  /// Folds any drop/mark counter movement since the last call into the
  /// metrics and the trace (one event per batch, like the old per-push
  /// accounting).
  void sync_qdisc_stats();

  sim::Simulator* sim_;
  Config config_;
  std::unique_ptr<QueueDiscipline> qdisc_;
  bool transmitting_ = false;
  Packet tx_packet_;        // in service while transmitting_ (one at a time)
  // Serialised, awaiting delivery. Deliveries never reorder (RLC-style
  // in-order delivery): a packet held up by HARQ also holds back its
  // successors.
  DelayLine pipe_;

  // Observability handles, resolved once at construction (null without a
  // scope). Every discipline reports the sojourn of each delivered packet
  // through the shared net.queue.sojourn_ms family; AQMs additionally get
  // qdisc-labelled drop/mark counters.
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* drops_ctr_ = nullptr;
  obs::Counter* qdisc_drops_ctr_ = nullptr;  // AQM only (qdisc-labelled)
  obs::Counter* qdisc_marks_ctr_ = nullptr;  // AQM only (qdisc-labelled)
  obs::Digest* sojourn_ms_ = nullptr;
  obs::Gauge* queue_hwm_ = nullptr;
  std::uint64_t drops_synced_ = 0;  // qdisc drops already counted
  std::uint64_t marks_synced_ = 0;  // qdisc marks already counted

  std::uint64_t delivered_packets_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t offered_packets_ = 0;
  std::uint64_t in_transit_packets_ = 0;

  // Fault injection (null / unused when no fault::Runtime is installed at
  // construction). The drop RNG is a private per-link fork of the fault
  // seed, so injected loss never perturbs any other random stream.
  fault::Runtime* fault_ = nullptr;
  std::unique_ptr<sim::Rng> fault_rng_;
  obs::Counter* fault_drops_ctr_ = nullptr;
  std::uint64_t fault_dropped_packets_ = 0;
};

}  // namespace fiveg::net
