// Unit tests for the discrete-event kernel: ordering, cancellation,
// determinism of the clock, and the RNG substream contract.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <iterator>
#include <limits>
#include <queue>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace fiveg::sim {
namespace {

constexpr Time kEnd = std::numeric_limits<Time>::max();

// Pops and runs the earliest runnable event; false when none is left.
bool run_next(EventQueue& q) {
  EventQueue::Popped e;
  if (!q.pop_due(kEnd, e)) return false;
  e.action();
  return true;
}

void run_all(EventQueue& q) {
  while (run_next(q)) {
  }
}

TEST(TimeTest, ConversionsRoundTrip) {
  EXPECT_EQ(from_seconds(1.5), 1500 * kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(250 * kMillisecond), 0.25);
  EXPECT_DOUBLE_EQ(to_millis(3 * kSecond), 3000.0);
  EXPECT_EQ(from_millis(12.5), 12'500'000);
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  run_all(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  run_all(q);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, CancelledEventsDoNotRun) {
  EventQueue q;
  int ran = 0;
  const EventId a = q.schedule(10, [&] { ++ran; });
  q.schedule(20, [&] { ++ran; });
  q.cancel(a);
  run_all(q);
  EXPECT_EQ(ran, 1);
}

TEST(EventQueueTest, CancelUnknownOrFiredIsNoop) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  EXPECT_TRUE(run_next(q));
  q.cancel(a);           // already fired
  q.cancel(9999);        // never existed
  EXPECT_EQ(q.next_time(kEnd), kEnd);
}

TEST(EventQueueTest, CancelHeadThenEmpty) {
  EventQueue q;
  const EventId a = q.schedule(10, [] {});
  q.cancel(a);
  EXPECT_EQ(q.next_time(kEnd), kEnd);
}

TEST(EventQueueTest, CancelDuringCallbackAffectsPendingOnly) {
  EventQueue q;
  int ran = 0;
  EventId self = 0;
  EventId victim = 0;
  victim = q.schedule(20, [&] { ++ran; });
  self = q.schedule(10, [&] {
    q.cancel(victim);  // still pending: must not run
    q.cancel(self);    // the running event's own id: harmless no-op
    ++ran;
  });
  run_all(q);
  EXPECT_EQ(ran, 1);
}

TEST(EventQueueTest, CancellingFiredIdsKeepsInternalStateBounded) {
  // Regression: the lazy-cancellation design kept every cancelled id in a
  // hash set, so cancelling ids that had already fired (the DRX/HARQ/RTO
  // timer pattern) grew internal state without bound.
  EventQueue q;
  Time t = 0;
  std::uint64_t fired = 0;
  EventId last = q.schedule(++t, [&] { ++fired; });
  for (int i = 0; i < 20'000; ++i) {
    EXPECT_TRUE(run_next(q));
    q.cancel(last);  // already fired: must be a stateless no-op
    last = q.schedule(++t, [&] { ++fired; });
  }
  run_all(q);
  EXPECT_EQ(fired, 20'001U);
  // Only one event is ever pending, so the slot arena must stay at O(1)
  // however many stale cancels arrived.
  EXPECT_LE(q.slot_capacity(), 2U);
  EXPECT_EQ(q.size(), 0U);
}

TEST(EventQueueTest, StaleIdCannotCancelRecycledSlot) {
  EventQueue q;
  int ran = 0;
  const EventId a = q.schedule(1, [&] { ++ran; });
  EXPECT_TRUE(run_next(q));
  // The new event may reuse a's slot; the fired id must not touch it.
  q.schedule(2, [&] { ++ran; });
  q.cancel(a);
  run_all(q);
  EXPECT_EQ(ran, 2);
}

TEST(CallableTest, MoveOnlyAndLargeCapturesSurviveMoves) {
  auto owned = std::make_unique<int>(7);
  int got = 0;
  Callable small([&got, p = std::move(owned)] { got = *p; });
  Callable small_moved = std::move(small);
  small_moved();
  EXPECT_EQ(got, 7);

  std::array<double, 16> big{};  // 128 bytes: exceeds the inline buffer
  big[15] = 3.5;
  double out = 0;
  Callable large([big, &out] { out = big[15]; });
  Callable large_moved = std::move(large);
  large_moved();
  EXPECT_DOUBLE_EQ(out, 3.5);
}

TEST(SimulatorTest, ClockFollowsEvents) {
  Simulator s;
  Time seen = -1;
  s.schedule_at(42 * kMillisecond, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 42 * kMillisecond);
  EXPECT_EQ(s.now(), 42 * kMillisecond);
}

TEST(SimulatorTest, ScheduleInIsRelative) {
  Simulator s;
  std::vector<Time> stamps;
  s.schedule_in(10, [&] {
    stamps.push_back(s.now());
    s.schedule_in(5, [&] { stamps.push_back(s.now()); });
  });
  s.run();
  EXPECT_EQ(stamps, (std::vector<Time>{10, 15}));
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator s;
  s.run_until(kSecond);
  EXPECT_EQ(s.now(), kSecond);
}

TEST(SimulatorTest, RunUntilDoesNotRunLaterEvents) {
  Simulator s;
  bool late = false;
  s.schedule_at(2 * kSecond, [&] { late = true; });
  s.run_until(kSecond);
  EXPECT_FALSE(late);
  s.run_until(3 * kSecond);
  EXPECT_TRUE(late);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(i, [&, i] {
      ++count;
      if (i == 3) s.stop();
    });
  }
  s.run();
  EXPECT_EQ(count, 3);
  s.run();  // resumes
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, RunUntilRunsTheDeadlineInstantAndNothingLater) {
  Simulator s;
  std::vector<Time> ran;
  for (const Time t : {99, 100, 101}) {
    s.schedule_at(t, [&] { ran.push_back(s.now()); });
  }
  s.run_until(100);
  EXPECT_EQ(ran, (std::vector<Time>{99, 100}));
  EXPECT_EQ(s.now(), 100);
  EXPECT_EQ(s.next_event_time(kEnd), 101);
}

TEST(SimulatorTest, RunWindowExcludesItsEndAndKeepsTheClockAtTheLastEvent) {
  Simulator s;
  std::vector<Time> ran;
  for (const Time t : {40, 49, 50}) {
    s.schedule_at(t, [&] { ran.push_back(s.now()); });
  }
  EXPECT_EQ(s.run_window(50), 2u);
  EXPECT_EQ(ran, (std::vector<Time>{40, 49}));
  EXPECT_EQ(s.now(), 49);
  EXPECT_EQ(s.run_window(50), 0u);
  EXPECT_EQ(s.now(), 49);
}

// stop() from a callback ends run(), run_until() and run_window() right
// after that event; a later run_until() picks up where it stopped.
TEST(SimulatorTest, StopEndsEveryLoopAfterTheEventAndRunUntilResumes) {
  for (int loop = 0; loop < 3; ++loop) {
    Simulator s;
    std::vector<Time> ran;
    for (Time t = 1; t <= 6; ++t) {
      s.schedule_at(t, [&, t] {
        ran.push_back(t);
        if (t == 2) s.stop();
      });
    }
    if (loop == 0) s.run();
    if (loop == 1) s.run_until(5);
    if (loop == 2) s.run_window(6);
    EXPECT_EQ(ran, (std::vector<Time>{1, 2})) << "loop " << loop;
    EXPECT_TRUE(s.stop_requested());
    // A stopped drain leaves the clock at the stopping event, so resuming
    // never runs an event with now() moving backwards.
    EXPECT_EQ(s.now(), 2) << "loop " << loop;
    s.run_until(10);
    EXPECT_EQ(ran, (std::vector<Time>{1, 2, 3, 4, 5, 6})) << "loop " << loop;
    EXPECT_EQ(s.now(), 10);
    EXPECT_EQ(s.executed_events(), 6u);
  }
}

// An event a callback schedules at now() runs in the same drain, after
// the same-instant events already queued.
TEST(SimulatorTest, SameInstantScheduleRunsInTheSameDrainAfterQueuedPeers) {
  for (int loop = 0; loop < 3; ++loop) {
    Simulator s;
    std::vector<char> order;
    s.schedule_at(5, [&] {
      order.push_back('a');
      s.schedule_at(s.now(), [&] { order.push_back('c'); });
    });
    s.schedule_at(5, [&] { order.push_back('b'); });
    s.schedule_at(6, [&] { order.push_back('d'); });
    if (loop == 0) s.run_until(5);
    if (loop == 1) s.run_window(6);
    if (loop == 2) {
      s.run();
      order.pop_back();  // 'd'
    }
    EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'})) << "loop " << loop;
    EXPECT_EQ(s.now(), loop == 2 ? 6 : 5);
  }
}

// Counts its own move constructions; copies are free.
struct MoveCounter {
  int* moves;
  explicit MoveCounter(int* m) : moves(m) {}
  MoveCounter(const MoveCounter&) = default;
  MoveCounter(MoveCounter&& other) noexcept : moves(other.moves) {
    ++*moves;
  }
  void operator()() const {}
};

// A callback is relocated into its queue slot and out of it, and nowhere
// on the way in: every schedule entry point passes it by reference.
TEST(SimulatorTest, ScheduleMovesTheCallbackAtMostTwice) {
  Simulator s;
  int moves = 0;
  const MoveCounter f(&moves);
  const auto check = [&](const char* entry) {
    s.run();
    EXPECT_LE(moves, 2) << entry;
    EXPECT_GE(moves, 1) << entry;
    moves = 0;
  };
  s.schedule_in(1, f);
  check("schedule_in");
  s.schedule_in(1, "test.moves", f);
  check("schedule_in, labelled");
  s.schedule_at(s.now() + 1, f);
  check("schedule_at");
  s.schedule_at(s.now() + 1, "test.moves", f);
  check("schedule_at, labelled");
  s.schedule_reserved(s.now() + 1, s.reserve_seq(s.now() + 1), "test.moves",
                     f);
  check("schedule_reserved");
}

TEST(SimulatorTest, PastScheduleClampsToNow) {
  Simulator s;
  Time seen = -1;
  s.schedule_at(100, [&] {
    s.schedule_at(5, [&] { seen = s.now(); });  // "in the past"
  });
  s.run();
  EXPECT_EQ(seen, 100);
}

TEST(EventQueueTest, PoppedCarriesLabel) {
  EventQueue q;
  q.schedule(5, "my.label", [] {});
  q.schedule(6, [] {});
  EventQueue::Popped a;
  ASSERT_TRUE(q.pop_due(kEnd, a));
  ASSERT_NE(a.label, nullptr);
  EXPECT_STREQ(a.label, "my.label");
  EventQueue::Popped b;
  ASSERT_TRUE(q.pop_due(kEnd, b));
  EXPECT_EQ(b.label, nullptr);  // unlabelled overload stays label-free
}

// An elided event (a number from take_seq()) scheduled after all runs
// once, under its own key; a covered one does not count in size() until
// uncovered, and a retracted one leaves nothing behind.
TEST(EventQueueTest, TakenNumberScheduledAfterAllRunsInTurn) {
  EventQueue q;
  const std::uint64_t first = q.take_seq();
  q.schedule(10, [] {});  // same instant, later number
  const std::uint64_t reserved = q.reserve_seq();
  EXPECT_EQ(q.size(), 2u);
  q.schedule_taken(10, first, "test.real", [] {}, /*covered=*/true);
  EXPECT_EQ(q.size(), 2u);
  q.uncover();
  EXPECT_EQ(q.size(), 3u);
  const EventId gone = q.schedule_reserved(30, reserved, nullptr, [] {});
  q.retract(gone);
  EXPECT_EQ(q.size(), 2u);
  std::vector<std::uint64_t> seqs;
  EventQueue::Popped e;
  while (q.pop_due(100, e)) {
    EXPECT_TRUE(e.action);
    seqs.push_back(e.seq);
    e.action.reset();
  }
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{first, first + 1}));
  EXPECT_EQ(q.cancelled_count(), 0u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, SizeIsUpperBoundOnPending) {
  EventQueue q;
  q.schedule(1, [] {});
  const EventId b = q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(b);
  // Lazy-deletion accounting: a cancelled event counts until it would have
  // surfaced at the top of the heap.
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(run_next(q));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(kEnd), kEnd);  // reaps b
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, ReservedSeqFiresBeforeLaterSameInstantEvents) {
  EventQueue q;
  std::vector<char> order;
  q.schedule(5, [&] { order.push_back('a'); });
  const std::uint64_t seq = q.reserve_seq();
  q.schedule(5, [&] { order.push_back('c'); });
  q.schedule(4, [&] { order.push_back('0'); });
  EXPECT_EQ(q.size(), 4u);  // the reservation counts as pending
  q.schedule_reserved(5, seq, nullptr, [&] { order.push_back('b'); });
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.scheduled_count(), 4u);
  run_all(q);
  EXPECT_EQ(order, (std::vector<char>{'0', 'a', 'b', 'c'}));
}

TEST(SimulatorTest, ReservedScheduleClampsToNow) {
  Simulator s;
  std::vector<Time> stamps;
  s.schedule_at(10, [&] {
    const std::uint64_t seq = s.reserve_seq(3);
    s.schedule_at(10, [&] { stamps.push_back(-s.now()); });
    s.schedule_reserved(3, seq, "test.reserved",
                        [&] { stamps.push_back(s.now()); });
  });
  s.run();
  EXPECT_EQ(stamps, (std::vector<Time>{10, -10}));
}

// The pending set as it was before compaction and reserved numbers: a
// lazy-deletion binary heap whose size() counts cancelled items until they
// surface at the top. The property test below holds EventQueue to its pop
// order and to its size() after every operation.
class LazyReferenceQueue {
 public:
  EventId schedule(Time at, std::function<void()> action) {
    const EventId id = next_id_++;
    heap_.push(Item{at, seq_++, id});
    actions_.emplace(id, std::move(action));
    return id;
  }
  void cancel(EventId id) { actions_.erase(id); }
  bool empty() {
    skip_stale();
    return heap_.empty();
  }
  Time pop_and_run() {
    skip_stale();
    const Item it = heap_.top();
    heap_.pop();
    std::function<void()> action = std::move(actions_.at(it.id));
    actions_.erase(it.id);
    action();
    return it.at;
  }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

 private:
  struct Item {
    Time at;
    std::uint64_t seq;
    EventId id;
    friend bool operator>(const Item& a, const Item& b) {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  void skip_stale() {
    while (!heap_.empty() && actions_.count(heap_.top().id) == 0) {
      heap_.pop();
    }
  }

  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap_;
  std::unordered_map<EventId, std::function<void()>> actions_;
  std::uint64_t seq_ = 0;
  EventId next_id_ = 0;
};

// Drives one queue through a seeded random script: schedules with many
// same-instant ties, cancels (fired ids, the head, mid-heap, from inside
// callbacks, and bursts that leave most of the heap cancelled), pops, and
// in-order "link deliveries". On EventQueue a delivery takes a reserved
// number and waits in a FIFO whose head alone is scheduled, as net::Link
// does; on the reference it is scheduled outright. Two harnesses with the
// same seed must produce the same log. On a Simulator the same script
// runs through the public loop: each pop is, in turn, a step(), a
// run_until() or a run_window() to the next event time, so every entry
// point of the dispatch loop runs and same-instant events batch.
template <class Q>
class QueueHarness {
 public:
  explicit QueueHarness(std::uint64_t seed) : rng_(seed) {}

  // Fired tags (with their times) and size() after every operation; on a
  // Simulator also its final executed_events() and now().
  struct Log {
    std::vector<std::pair<int, Time>> fired;
    std::vector<std::size_t> sizes;
    std::uint64_t executed = 0;
    Time now = 0;
  };

  Log run(int steps) {
    for (int i = 0; i < steps; ++i) {
      step();
      log_.sizes.push_back(size());
    }
    while (run_next()) log_.sizes.push_back(size());
    log_.sizes.push_back(size());
    if constexpr (kSim) {
      log_.executed = q_.executed_events();
      log_.now = q_.now();
    }
    return log_;
  }

 private:
  static constexpr bool kSim = std::is_same_v<Q, Simulator>;

  struct Timer {
    EventId id;
    Time at;
  };

  [[nodiscard]] std::size_t size() const {
    if constexpr (kSim) {
      return q_.queue_depth();
    } else {
      return q_.size();
    }
  }

  // Runs the earliest event (on a Simulator, in turn: one event, or every
  // event at the next instant); false when none is left.
  bool run_next() {
    if constexpr (kSim) {
      const Time t = q_.next_event_time(kEnd);
      if (t == kEnd) return false;
      switch (pops_++ % 3) {
        case 0:
          return q_.step();
        case 1:
          q_.run_until(t);
          return true;
        default:
          return q_.run_window(t + 1) > 0;
      }
    } else if constexpr (std::is_same_v<Q, EventQueue>) {
      EventQueue::Popped e;
      if (!q_.pop_due(kEnd, e)) return false;
      e.action();
      now_ = e.at;
      return true;
    } else {
      if (q_.empty()) return false;
      now_ = q_.pop_and_run();
      return true;
    }
  }

  struct Delivery {
    Time at;
    std::uint64_t seq;
    int tag;
  };

  void step() {
    const std::int64_t op = rng_.uniform_int(0, 99);
    if (op < 35) {
      schedule(now_ + rng_.uniform_int(0, 60));
    } else if (op < 48) {
      cancel_random();  // fired, cancelled or pending alike
    } else if (op < 52) {
      if (!pending_.empty()) cancel(pending_.begin()->second);  // the head
    } else if (op < 55) {
      if (!pending_.empty()) {  // mid-heap
        cancel(std::next(pending_.begin(),
                         static_cast<std::ptrdiff_t>(pending_.size() / 2))
                   ->second);
      }
    } else if (op < 57) {
      burst();
    } else if (op < 67) {
      enqueue_delivery();
    } else {
      run_next();
    }
  }

  void schedule(Time at) {
    const int tag = next_tag_++;
    const auto action = [this, tag] { fire(tag); };
    EventId id = 0;
    if constexpr (kSim) {
      id = q_.schedule_at(at, action);
    } else {
      id = q_.schedule(at, action);
    }
    timers_.emplace(tag, Timer{id, at});
    tags_.push_back(tag);
    pending_.emplace(at, tag);
  }

  void cancel(int tag) {
    const Timer& t = timers_.at(tag);
    q_.cancel(t.id);
    pending_.erase({t.at, tag});
  }

  void cancel_random() {
    if (tags_.empty()) return;
    const auto k =
        rng_.uniform_int(0, static_cast<std::int64_t>(tags_.size()) - 1);
    cancel(tags_[static_cast<std::size_t>(k)]);
  }

  // Enough cancelled items to outnumber the live ones and force EventQueue
  // to compact, spread in time so some outlive many later pops.
  void burst() {
    const std::size_t first = tags_.size();
    for (int i = 0; i < 200; ++i) schedule(now_ + rng_.uniform_int(1, 2000));
    for (std::size_t i = first; i < tags_.size(); ++i) {
      if (rng_.uniform_int(0, 9) != 0) cancel(tags_[i]);
    }
  }

  void fire(int tag) {
    if constexpr (kSim) now_ = q_.now();
    log_.fired.emplace_back(tag, now_);
    if (const auto it = timers_.find(tag); it != timers_.end()) {
      pending_.erase({it->second.at, tag});
    }
    // Callbacks cancel and schedule too, as protocol timers do.
    if (tag % 3 == 0) cancel_random();
    if (tag % 7 == 0) schedule(now_ + rng_.uniform_int(0, 30));
  }

  void enqueue_delivery() {
    last_delivery_ = std::max(now_ + rng_.uniform_int(0, 40), last_delivery_);
    const int tag = next_tag_++;
    if constexpr (!std::is_same_v<Q, LazyReferenceQueue>) {
      std::uint64_t seq;
      if constexpr (std::is_same_v<Q, Simulator>) {
        seq = q_.reserve_seq(last_delivery_);
      } else {
        seq = q_.reserve_seq();
      }
      fifo_.push_back({last_delivery_, seq, tag});
      if (fifo_.size() == 1) schedule_fifo_head();
    } else {
      q_.schedule(last_delivery_, [this, tag] { fire(tag); });
    }
  }

  void schedule_fifo_head() {
    const Delivery& d = fifo_.front();
    q_.schedule_reserved(d.at, d.seq, nullptr, [this] {
      const int tag = fifo_.front().tag;
      fifo_.pop_front();
      if (!fifo_.empty()) schedule_fifo_head();
      fire(tag);
    });
  }

  Q q_;
  Rng rng_;
  Time now_ = 0;
  Time last_delivery_ = 0;
  int next_tag_ = 0;
  int pops_ = 0;
  std::unordered_map<int, Timer> timers_;   // cancellable events by tag
  std::vector<int> tags_;                   // timer tags in schedule order
  std::set<std::pair<Time, int>> pending_;  // uncancelled, unfired timers
  std::deque<Delivery> fifo_;
  Log log_;
};

class EventQueuePropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueuePropertyTest, MatchesLazyReferenceQueue) {
  const auto got = QueueHarness<EventQueue>(GetParam()).run(4000);
  const auto want = QueueHarness<LazyReferenceQueue>(GetParam()).run(4000);
  EXPECT_GT(got.fired.size(), 1000u);
  EXPECT_EQ(got.fired, want.fired);
  ASSERT_EQ(got.sizes.size(), want.sizes.size());
  for (std::size_t i = 0; i < got.sizes.size(); ++i) {
    ASSERT_EQ(got.sizes[i], want.sizes[i]) << "after operation " << i;
  }
}

// The observed dispatch loop (metrics and tracing on) must run exactly the
// events the disabled one runs, in the same order, at the same times.
TEST_P(EventQueuePropertyTest, ObservedSimulatorMatchesDisabled) {
  const auto plain = QueueHarness<Simulator>(GetParam()).run(4000);
  obs::Tracer tracer(1 << 12);
  obs::MetricsRegistry metrics;
  const obs::ScopedObs scope(&tracer, &metrics);
  const auto observed = QueueHarness<Simulator>(GetParam()).run(4000);
  EXPECT_GT(plain.fired.size(), 1000u);
  EXPECT_EQ(observed.fired, plain.fired);
  EXPECT_EQ(observed.sizes, plain.sizes);
  EXPECT_EQ(observed.executed, plain.executed);
  EXPECT_EQ(observed.now, plain.now);
  EXPECT_EQ(metrics.counter("sim.events").value(), observed.executed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueuePropertyTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 777u, 2024u));

TEST(SimulatorTest, LabelledSchedulingBehavesLikeUnlabelled) {
  Simulator s;
  std::vector<Time> stamps;
  s.schedule_in(10, "test.step", [&] {
    stamps.push_back(s.now());
    s.schedule_at(15, "test.step", [&] { stamps.push_back(s.now()); });
  });
  s.run();
  EXPECT_EQ(stamps, (std::vector<Time>{10, 15}));
  EXPECT_EQ(s.executed_events(), 2u);
}

TEST(SimulatorTest, QueueDepthHighWaterZeroWithoutScope) {
  Simulator s;
  for (int i = 0; i < 8; ++i) s.schedule_in(i, [] {});
  s.run();
  // No obs scope installed: profiling is off, HWM stays untouched.
  EXPECT_EQ(s.queue_depth_high_water(), 0u);
  EXPECT_EQ(s.queue_depth(), 0u);
}

TEST(EventQueueTest, ScheduledCountIsDiagnosticTotal) {
  EventQueue q;
  q.schedule(1, [] {});
  const EventId b = q.schedule(2, [] {});
  q.cancel(b);
  EXPECT_TRUE(run_next(q));
  EXPECT_EQ(q.scheduled_count(), 2u);  // counts ever-scheduled, not pending
  EXPECT_EQ(q.next_time(kEnd), kEnd);
}

TEST(SimulatorTest, ExecutedEventsCountsOnlyRunEvents) {
  Simulator s;
  const EventId a = s.schedule_in(5, [] {});
  (void)a;
  const EventId b = s.schedule_in(6, [] {});
  s.cancel(b);
  s.run();
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 4);
}

TEST(RngTest, ForkIsStableRegardlessOfParentDraws) {
  Rng a(99);
  Rng fork_before = a.fork("radio");
  (void)a.next_u64();
  (void)a.uniform(0, 1);
  Rng fork_after = a.fork("radio");
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(fork_before.next_u64(), fork_after.next_u64());
  }
}

TEST(RngTest, ForksWithDifferentNamesAreIndependent) {
  Rng a(99);
  Rng x = a.fork("x");
  Rng y = a.fork("y");
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (x.next_u64() == y.next_u64());
  EXPECT_LT(same, 4);
}

TEST(RngTest, ForkSubstreamsAreUncorrelated) {
  // Direct independence check: paired uniforms from two named substreams
  // of the same parent show no linear correlation.
  Rng parent(42);
  Rng x = parent.fork("substream-a");
  Rng y = parent.fork("substream-b");
  const int n = 4000;
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (int i = 0; i < n; ++i) {
    const double u = x.uniform(0, 1), v = y.uniform(0, 1);
    sx += u;
    sy += v;
    sxx += u * u;
    syy += v * v;
    sxy += u * v;
  }
  const double cov = sxy / n - (sx / n) * (sy / n);
  const double var_x = sxx / n - (sx / n) * (sx / n);
  const double var_y = syy / n - (sy / n) * (sy / n);
  const double corr = cov / std::sqrt(var_x * var_y);
  EXPECT_LT(std::fabs(corr), 0.05);
  // Both streams are individually well-behaved uniforms.
  EXPECT_NEAR(sx / n, 0.5, 0.03);
  EXPECT_NEAR(sy / n, 0.5, 0.03);
}

TEST(RngTest, NestedForksDependOnFullPath) {
  // fork("a").fork("b") and fork("b").fork("a") are distinct streams: the
  // derivation is path-dependent, not an order-insensitive xor of names.
  Rng parent(7);
  Rng ab = parent.fork("a").fork("b");
  Rng ba = parent.fork("b").fork("a");
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (ab.next_u64() == ba.next_u64());
  EXPECT_LT(same, 4);
  // And a nested fork re-derived from scratch is bit-identical.
  Rng again = Rng(7).fork("a").fork("b");
  Rng ab2 = Rng(7).fork("a").fork("b");
  for (int i = 0; i < 32; ++i) EXPECT_EQ(again.next_u64(), ab2.next_u64());
}

TEST(RngTest, UniformInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng r(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsApproximate) {
  Rng r(5);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal(10.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(RngTest, BernoulliProbability) {
  Rng r(6);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, BernoulliClampsOutOfRange) {
  Rng r(8);
  EXPECT_FALSE(r.bernoulli(-0.5));
  EXPECT_TRUE(r.bernoulli(1.5));
}

// Property sweep: event-driven clocks never move backwards for any workload
// pattern generated from different seeds.
class SimulatorPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorPropertyTest, TimeNeverGoesBackwards) {
  Simulator s;
  Rng r(GetParam());
  Time last_seen = 0;
  bool violated = false;
  // A self-perpetuating stochastic workload with fan-out.
  std::function<void(int)> spawn = [&](int depth) {
    if (depth > 4) return;
    const int kids = static_cast<int>(r.uniform_int(0, 3));
    for (int k = 0; k < kids; ++k) {
      s.schedule_in(r.uniform_int(0, 1000), [&, depth] {
        violated = violated || (s.now() < last_seen);
        last_seen = s.now();
        spawn(depth + 1);
      });
    }
  };
  spawn(0);
  s.run();
  EXPECT_FALSE(violated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 1234u, 99999u));

}  // namespace
}  // namespace fiveg::sim
