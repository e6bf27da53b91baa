// A FIFO pipe that hands packets to a sink after a delay, in order, with at
// most one pending simulator event: the head's. Each packet takes its event
// sequence number when it enters (Simulator::reserve_seq), so its delivery
// ties with same-instant events exactly as if it had been scheduled then,
// and the queue-depth accounting sees it as pending all along.
//
// Packets never ride inside simulator events: the event captures only
// `this`, so a pipe of any depth costs no Callable heap allocation. A
// DelayLine must therefore outlive its pending event, or the simulator
// must never run it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "sim/simulator.h"

namespace fiveg::net {

class DelayLine {
 public:
  /// `label` names the delivery events (a string literal, as for
  /// Simulator::schedule_at); `sink` receives delivered packets.
  DelayLine(sim::Simulator* simulator, const char* label,
            PacketSink* sink = nullptr)
      : sim_(simulator), label_(label), sink_(sink) {}
  DelayLine(const DelayLine&) = delete;
  DelayLine& operator=(const DelayLine&) = delete;

  void set_sink(PacketSink* sink) noexcept { sink_ = sink; }
  [[nodiscard]] PacketSink* sink() const noexcept { return sink_; }

  /// Delivers `p` at `at`, or at the previous packet's delivery time if
  /// that is later: a packet never overtakes an earlier one.
  void push(sim::Time at, Packet p);

  /// Undoes the latest push() (which must still be pending): returns its
  /// packet and gives back its sequence number, as if never pushed.
  Packet take_back();

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Entry {
    sim::Time at = 0;
    std::uint64_t seq = 0;
    Packet packet;
  };

  // Schedules the delivery event for the head entry.
  void schedule_head();
  void deliver_head();

  sim::Simulator* sim_;
  const char* label_;
  PacketSink* sink_;
  sim::Time last_at_ = 0;
  sim::EventId head_event_ = 0;  // the head's pending delivery
  // Ring of entries that doubles when full: nothing is allocated until the
  // first packet, and storage stays within twice the high-water mark.
  // The capacity is a power of two, so indices wrap with a mask.
  std::vector<Entry> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace fiveg::net
