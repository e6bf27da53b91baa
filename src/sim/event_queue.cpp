#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace fiveg::sim {
namespace {

// Below this many heap items compaction is not worth a pass.
constexpr std::size_t kCompactMinItems = 64;

}  // namespace

EventId EventQueue::schedule(Time at, const char* label,
                             Callable&& action) {
  return push(at, seq_++, label, std::move(action));
}

EventId EventQueue::schedule_reserved(Time at, std::uint64_t seq,
                                      const char* label, Callable&& action) {
  assert(reserved_ > 0 && seq < seq_);
  --reserved_;
  return push(at, seq, label, std::move(action));
}

EventId EventQueue::schedule_taken(Time at, std::uint64_t seq,
                                   const char* label, Callable&& action,
                                   bool covered) {
  assert(seq < seq_);
  covered_ += covered ? 1 : 0;
  return push(at, seq, label, std::move(action));
}

EventId EventQueue::push(Time at, std::uint64_t seq, const char* label,
                         Callable&& action) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.label = label;
  s.live = true;
  heap_.push_back(HeapItem{{at, seq}, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

void EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffU);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return;  // never-issued handle
  Slot& s = slots_[slot];
  // Generation mismatch: the event already fired (or was cancelled) and
  // the slot moved on. The stale-id no-op costs nothing and stores nothing.
  if (!s.live || s.gen != gen) return;
  ++cancelled_;
  s.action.reset();  // release captures immediately
  s.label = nullptr;
  s.live = false;
  ++s.gen;  // invalidates the id and the pending heap item
  free_.push_back(slot);
  ++stale_;
  if (heap_.size() >= kCompactMinItems && 2 * stale_ > heap_.size()) {
    compact();
  }
}

void EventQueue::retract(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffU);
  Slot& s = slots_[slot];
  assert(s.live && s.gen == static_cast<std::uint32_t>(id >> 32));
  s.action.reset();
  s.label = nullptr;
  s.live = false;
  s.retracted = true;  // same generation: the heap item still names it
  ++retracted_;
  ++stale_;
}

bool EventQueue::reap_retracted(const HeapItem& it) const noexcept {
  Slot& s = slots_[it.slot];
  if (!s.retracted || s.gen != it.gen) return false;
  s.retracted = false;
  ++s.gen;
  free_.push_back(it.slot);
  --retracted_;
  return true;
}

// (at, seq) keys are unique, so neither the heap layout nor moving keys
// between heap_ and ghosts_ can change which event pops next.
void EventQueue::compact() {
  const auto stale = std::partition(
      heap_.begin(), heap_.end(),
      [this](const HeapItem& it) { return is_live(it); });
  for (auto it = stale; it != heap_.end(); ++it) {
    if (reap_retracted(*it)) continue;  // never counted: no ghost
    ghosts_.push_back(*it);
    std::push_heap(ghosts_.begin(), ghosts_.end(), std::greater<>{});
  }
  heap_.erase(stale, heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  stale_ = 0;
}

void EventQueue::skip_stale() const {
  while (!heap_.empty() && !is_live(heap_.front())) {
    reap_retracted(heap_.front());
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    --stale_;
  }
  while (!ghosts_.empty() &&
         (heap_.empty() || heap_.front() > ghosts_.front())) {
    std::pop_heap(ghosts_.begin(), ghosts_.end(), std::greater<>{});
    ghosts_.pop_back();
  }
}

Time EventQueue::next_time(Time fallback) const {
  skip_stale();
  return heap_.empty() ? fallback : heap_.front().at;
}

bool EventQueue::pop_due(Time last, Popped& out) {
  skip_stale();
  if (heap_.empty() || heap_.front().at > last) return false;
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const HeapItem it = heap_.back();
  heap_.pop_back();
  Slot& s = slots_[it.slot];
  // Detach the callback before it can run: it may schedule into (or cancel
  // within) this queue, including its own — now stale — id.
  out.at = it.at;
  out.seq = it.seq;
  out.label = s.label;
  out.action = std::move(s.action);
  s.label = nullptr;
  s.live = false;
  ++s.gen;
  free_.push_back(it.slot);
  return true;
}

}  // namespace fiveg::sim
