// A deterministic pending-event set: a min-heap keyed on (time, sequence
// number) so that events scheduled for the same instant fire in scheduling
// order.
//
// Layout: the heap holds small POD items (time, sequence, slot reference);
// the callables live in a slot arena indexed by the heap items. An EventId
// is (slot generation << 32) | slot index, so cancellation is O(1): it
// destroys the action immediately (releasing its captures), bumps the
// slot's generation — which simultaneously invalidates the id, invalidates
// the heap item (reaped lazily when it surfaces), and recycles the slot.
// Cancelling an already-fired or unknown id compares generations and does
// nothing, so no per-id bookkeeping ever accumulates: total storage is
// bounded by the high-water mark of concurrently pending events.
//
// Cancelled items that would otherwise wait in the heap until their
// deadline (re-armed protocol timers, mostly) are compacted out once they
// outnumber the live ones; only their keys are kept, so size() still
// counts them exactly as a purely lazy heap would.
//
// A caller that queues work of its own (a link's in-flight FIFO) can take
// a sequence number early with reserve_seq() and schedule under it later
// with schedule_reserved(): the event then ties with same-instant events
// as if it had been scheduled at reservation time.
//
// A caller that can tell, when it starts some work, that the event ending
// it would have nothing to do (a link's transmit end on an idle hop, see
// net::Link) takes that event's number with take_seq() and schedules
// nothing: the event is elided. If the event has to run after all,
// schedule_taken() schedules it under the same number.
//
// The one way out is pop_due(): it reaps stale items once, then pops the
// head only if it is due. Callables are taken by rvalue reference, so an
// action is relocated exactly twice: into its slot, and out of it into the
// caller's Popped.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/callable.h"
#include "sim/time.h"

namespace fiveg::sim {

/// Opaque handle identifying a scheduled event; usable to cancel it.
using EventId = std::uint64_t;

/// Priority queue of timed callbacks with stable same-time ordering.
class EventQueue {
 public:
  /// Schedules `action` to fire at absolute time `at`. Returns a handle
  /// that can be passed to `cancel`.
  EventId schedule(Time at, Callable&& action) {
    return schedule(at, nullptr, std::move(action));
  }

  /// Labelled variant for the observability layer: `label` buckets the
  /// event in profiling reports and traces. It must point at storage that
  /// outlives the queue (string literals, in practice); null means
  /// unlabelled. Carrying the pointer costs unlabelled callers nothing.
  EventId schedule(Time at, const char* label, Callable&& action);

  /// Takes the next sequence number without scheduling anything. Pass it
  /// to schedule_reserved() later: the event keeps the same-instant tie
  /// order it would have had if scheduled now. Each reserved number must
  /// be scheduled exactly once. Until then it counts towards size(), as
  /// the pending event it stands for. size() equals a lazy heap's count
  /// only while every reserved number sorts after some scheduled event
  /// whenever the queue is inspected, as with a FIFO whose head is always
  /// scheduled.
  [[nodiscard]] std::uint64_t reserve_seq() noexcept {
    ++reserved_;
    return seq_++;
  }

  /// Schedules `action` at `at` under a number from reserve_seq().
  EventId schedule_reserved(Time at, std::uint64_t seq, const char* label,
                            Callable&& action);

  /// Cancels a pending event. Cancelling an already-fired or unknown
  /// handle is a harmless no-op (the common race in protocol timers).
  void cancel(EventId id);

  /// Time of the earliest runnable event, or `fallback` when none is left.
  [[nodiscard]] Time next_time(Time fallback) const;

  /// Drops a reservation that will never be scheduled (a packet taken back
  /// out of a FIFO). Its number stays used.
  void release_reserved() noexcept {
    assert(reserved_ > 0);
    --reserved_;
  }

  /// Takes a sequence number for an elided event. Unlike reserve_seq() it
  /// does not count towards size(): the caller's own bookkeeping stands in
  /// for it (see net::Link).
  [[nodiscard]] std::uint64_t take_seq() noexcept { return seq_++; }

  /// Schedules `action` at `at` under a number from take_seq(). With
  /// `covered`, a reservation already counts for this event in size(), so
  /// it does not count again until the caller calls uncover() (from the
  /// action, at the latest).
  EventId schedule_taken(Time at, std::uint64_t seq, const char* label,
                         Callable&& action, bool covered);
  void uncover() noexcept {
    assert(covered_ > 0);
    --covered_;
  }

  /// Removes a pending event as if it had never been scheduled: no cancel
  /// is counted and nothing stays behind in size(). Like a cancelled one,
  /// its heap item is reaped lazily; its slot is recycled only then.
  void retract(EventId id);

  /// A popped event, detached from the queue.
  struct Popped {
    Time at = 0;
    std::uint64_t seq = 0;
    const char* label = nullptr;  // null when unlabelled
    Callable action;
  };

  /// If the earliest runnable event is due at or before `last`, moves it
  /// into `out` (whose action must be empty) without running it, so the
  /// caller can advance its clock first, and returns true. Returns false,
  /// leaving `out` alone, when no runnable event is due.
  bool pop_due(Time last, Popped& out);

  /// Number of events ever scheduled (diagnostic).
  [[nodiscard]] std::uint64_t scheduled_count() const noexcept {
    return seq_;
  }

  /// Number of live events actually cancelled (stale-id no-ops excluded);
  /// with scheduled_count() this is the event-churn pair the self-profiler
  /// reports per run.
  [[nodiscard]] std::uint64_t cancelled_count() const noexcept {
    return cancelled_;
  }

  /// Pending-set occupancy with lazy-deletion accounting: runnable events,
  /// reserved-but-unscheduled numbers, and cancelled events until they
  /// would have surfaced at the top of the heap (compaction does not end
  /// that early), less covered and retracted events. Elided events are not
  /// counted. An upper bound on the runnable-event count; queue-depth
  /// high-water marks and traces are recorded from it.
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() + ghosts_.size() + reserved_ - covered_ - retracted_;
  }

  /// Number of action slots ever allocated: the high-water mark of
  /// concurrently pending events. Stays flat however many ids are
  /// cancelled — the regression guard for the old cancelled-set leak.
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return slots_.size();
  }

 private:
  struct Key {
    Time at;
    std::uint64_t seq;  // schedule order: FIFO tie-break at equal times
    friend bool operator>(const Key& a, const Key& b) noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  struct HeapItem : Key {
    std::uint32_t slot;  // index into slots_
    std::uint32_t gen;   // slot generation at schedule time
  };

  struct Slot {
    Callable action;
    const char* label = nullptr;
    std::uint32_t gen = 0;
    bool live = false;
    bool retracted = false;  // dead, heap item not yet reaped
  };

  [[nodiscard]] bool is_live(const HeapItem& it) const noexcept {
    const Slot& s = slots_[it.slot];
    return s.live && s.gen == it.gen;
  }
  EventId push(Time at, std::uint64_t seq, const char* label,
               Callable&& action);
  // Drops cancelled and retracted items from the top of the heap, and
  // compacted keys that sort before the earliest runnable event: the items
  // a lazy heap would have reaped by now.
  void skip_stale() const;
  // Moves every cancelled item's key out of the heap into ghosts_.
  void compact();
  // Whether `it` is a retracted event's item; if so, forgets it and
  // recycles its slot.
  bool reap_retracted(const HeapItem& it) const noexcept;

  // Min-heaps (std::push_heap/pop_heap with std::greater).
  mutable std::vector<HeapItem> heap_;
  mutable std::vector<Key> ghosts_;  // keys of compacted cancelled items
  mutable std::size_t stale_ = 0;    // cancelled items still in heap_
  mutable std::vector<Slot> slots_;
  mutable std::vector<std::uint32_t> free_;  // recycled slot indices (LIFO)
  mutable std::size_t retracted_ = 0;  // retracted items still in heap_
  std::uint64_t seq_ = 0;
  std::uint64_t reserved_ = 0;  // reserved numbers not yet scheduled
  std::uint64_t covered_ = 0;   // covered events not yet uncovered
  std::uint64_t cancelled_ = 0;
};

}  // namespace fiveg::sim
