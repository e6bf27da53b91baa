// A simplex link: serialisation at a (possibly time-varying) rate, a
// pluggable queue discipline (drop-tail by default; CoDel / FQ-CoDel /
// RED for the AQM experiments), propagation delay, optional per-packet
// extra delay (HARQ retransmissions) and an optional outage predicate
// (hand-off interruptions). Two Links back-to-back make a duplex hop.
//
// Packets never ride inside simulator events: the one being serialised
// sits in a tx slot, the ones propagating in a net::DelayLine, and each
// link has at most one pending net.link_deliver event (the pipe head's),
// capturing only `this`.
//
// A transmission ends in a net.link_tx event, unless the link cuts
// through. A link with a constant rate and no rate, extra-delay or outage
// callback, built on an unobserved simulator with no fault::Runtime, no
// tracer and no metrics installed, knows a packet's transmit end when it
// pops it, and nothing counts the events it runs. If the packet leaves the
// queue empty, a sink is attached and no packet arrived during the
// previous transmission, the link schedules nothing: it records
// busy_until, takes the number the net.link_tx would have taken
// (Simulator::elide) and pushes the packet straight into the pipe.
// Simulator::passed() then tells whether the transmission is over exactly
// as the event order would have. A real net.link_tx is scheduled under
// that number only if a packet arrives while the transmission is in
// progress; it starts the next one, the first packet being in the pipe
// already. The delivery's number, taken early, is claimed
// (Simulator::claim_instant): a number taken for the same delivery instant
// before busy_until, or a sink change, revokes the cut-through and the
// transmission ends in its net.link_tx after all. The statistics below
// answer for the current simulated time either way.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "fault/fault.h"
#include "net/aqm.h"
#include "net/delay_line.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace fiveg::net {

/// One direction of a network hop.
class Link : private sim::EarlyNumberHolder {
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
  };

  /// `sink` receives delivered packets; may be changed later.
  Link(sim::Simulator* simulator, Config config, PacketSink* sink = nullptr);
  /// Releases a cut-through claim held in the simulator, so a link must
  /// be destroyed before its simulator.
  ~Link();

  /// Changing the sink while a cut-through packet is being serialised turns
  /// its transmit end back into a real event: whether the packet enters
  /// the pipe is decided there, by the sink attached at that time.
  void set_sink(PacketSink* sink);

  /// Offers a packet: queued for transmission or dropped by the qdisc.
  void send(Packet p);

  /// Instantaneous transmit rate in bits/s.
  [[nodiscard]] double current_rate_bps() const;

  // --- statistics ---
  [[nodiscard]] std::uint64_t delivered_packets() const noexcept {
    return delivered_packets_ + (cut_through_done() ? 1 : 0);
  }
  [[nodiscard]] std::uint64_t delivered_bytes() const noexcept {
    return delivered_bytes_ + (cut_through_done() ? cut_bytes_ : 0);
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
    return in_transit_packets_ - (cut_through_done() ? 1 : 0);
  }
  [[nodiscard]] std::uint64_t marked_packets() const noexcept {
    return qdisc_->marks();
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  void try_transmit();
  void finish_transmit();
  // Whether the cut-through packet's transmission is over by now.
  [[nodiscard]] bool cut_through_done() const noexcept {
    return cut_pending_ && sim_->passed(busy_until_, tx_seq_);
  }
  // Books the finished cut-through transmission as delivered.
  void settle_cut_through() noexcept;
  // Turns the cut-through transmission in progress back into an ordinary
  // one: the packet leaves the pipe for the tx slot, and its transmit end
  // becomes (or stays) a real net.link_tx that pushes it as usual.
  void revoke_early_number() override;
  /// Folds any drop/mark counter movement since the last call into the
  /// metrics and the trace (one event per batch, like the old per-push
  /// accounting).
  void sync_qdisc_stats();

  sim::Simulator* sim_;
  Config config_;
  std::unique_ptr<QueueDiscipline> qdisc_;
  bool transmitting_ = false;  // a net.link_tx or blocked poll is pending
  Packet tx_packet_;        // in service, unless cut_pending_ (one at a time)
  // Cut-through state. cut_pending_: the latest packet went into the pipe
  // at its pop and its transmission, ending at (busy_until_, tx_seq_), is
  // not yet booked as delivered; transmitting_ then means its end became a
  // real net.link_tx.
  bool cut_through_ = false;  // eligible (fixed at construction)
  bool cut_pending_ = false;
  sim::Time busy_until_ = 0;  // transmit end of the packet in service
  std::uint64_t tx_seq_ = 0;  // its number
  std::uint32_t cut_bytes_ = 0;
  // No packet arrived while the previous transmission ran. Cut-through is
  // only tried then: on a busy link the next packet tends to arrive before
  // the transmit end, which would have to run after all.
  bool quiet_ = true;
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
