// The discrete-event simulator: a clock plus the pending-event set. All
// protocol machinery in this repository (radio, RAN, TCP, energy) advances
// exclusively through callbacks scheduled here, which makes every experiment
// deterministic for a given RNG seed.
//
// The simulator is also the root of the observability layer's profiling
// data: when the constructing thread has an obs::Scope installed (see
// obs/obs.h), every executed event is counted per label, a sample of them
// is timed on the wall clock into kWall digests, and the queue-depth
// high-water mark is tracked. Without a scope, instrumentation costs one
// branch per drain.
//
// run(), run_until(), run_window() and step() all go through one private
// loop, drain(): it pops each due event once (EventQueue::pop_due) and
// picks the disabled or observed body once per call, not once per event.
// Schedule calls take the action by rvalue reference down to the queue, so
// a callback is relocated into its slot and out of it, and nowhere else.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/callable.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace fiveg::obs {
class Counter;
class Digest;
class Gauge;
class MetricsRegistry;
class Tracer;
}  // namespace fiveg::obs

namespace fiveg::sim {

/// Holder of an early sequence number (see Simulator::claim_instant).
class EarlyNumberHolder {
 public:
  /// Gives the early number back: the event it was taken for is to be
  /// scheduled the ordinary way instead.
  virtual void revoke_early_number() = 0;

 protected:
  ~EarlyNumberHolder() = default;
};

/// Discrete-event simulation driver.
///
/// Typical use:
///   Simulator s;
///   s.schedule_in(10 * kMillisecond, [&] { ... });
///   s.run_until(2 * kSecond);
class Simulator {
 public:
  /// Captures the calling thread's observability scope; with none
  /// installed, all instrumentation is disabled for this instance.
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at 0.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `at` (clamped to `now()` if in the
  /// past, so zero-delay self-posts are safe).
  EventId schedule_at(Time at, Callable&& action) {
    return schedule_at(at, nullptr, std::move(action));
  }

  /// Labelled variant: `label` buckets this event in profiling reports and
  /// traces ("tcp.rto", "net.link_tx", ...). Must be a string literal or
  /// other storage outliving the simulator; unlabelled callers pay nothing.
  EventId schedule_at(Time at, const char* label, Callable&& action);

  /// Schedules `action` to fire `delay` from now.
  EventId schedule_in(Time delay, Callable&& action) {
    return schedule_in(delay, nullptr, std::move(action));
  }

  /// Labelled variant of `schedule_in` (see `schedule_at`).
  EventId schedule_in(Time delay, const char* label, Callable&& action);

  /// Takes the next event sequence number for a later schedule_reserved()
  /// of an event due at `at` (see EventQueue::reserve_seq): a component
  /// that queues work itself keeps the same-instant tie order its events
  /// would have had if it had scheduled each one now.
  [[nodiscard]] std::uint64_t reserve_seq(Time at) {
    guard_instant(std::max(at, now_));
    return queue_.reserve_seq();
  }

  /// Schedules `action` at `at` (clamped to `now()`) under a number from
  /// reserve_seq(); `label` as for `schedule_at`.
  EventId schedule_reserved(Time at, std::uint64_t seq, const char* label,
                            Callable&& action) {
    return queue_.schedule_reserved(std::max(at, now_), seq, label,
                                    std::move(action));
  }

  /// Cancels a pending event (no-op if already fired).
  void cancel(EventId id) { queue_.cancel(id); }

  /// Whether this simulator counts or traces the events it runs (an
  /// observability scope was installed at construction).
  [[nodiscard]] bool observed() const noexcept {
    return metrics_ != nullptr || tracer_ != nullptr;
  }

  /// Elided events (see EventQueue): elide() takes the number of an event
  /// due at `at` that will not be scheduled. Only an unobserved simulator
  /// may elide, since an elided event is counted nowhere.
  std::uint64_t elide(Time at) {
    assert(!observed());
    guard_instant(at);
    return queue_.take_seq();
  }

  /// Schedules an elided event after all (see EventQueue::schedule_taken).
  EventId schedule_taken(Time at, std::uint64_t seq, const char* label,
                         Callable&& action, bool covered) {
    return queue_.schedule_taken(std::max(at, now_), seq, label,
                                 std::move(action), covered);
  }
  void uncover() noexcept { queue_.uncover(); }
  void release_reserved() noexcept { queue_.release_reserved(); }
  void retract(EventId id) { queue_.retract(id); }

  /// Whether the event keyed (at, seq) would have run by now: it sorts
  /// before the running event or, between runs, before the clock's
  /// position (after a full run_until(), everything scheduled so far for
  /// the deadline has run).
  [[nodiscard]] bool passed(Time at, std::uint64_t seq) const noexcept {
    return at < now_ || (at == now_ && seq < pos_seq_);
  }

  /// Early numbers. `holder` took the number of an event due at `at` (with
  /// reserve_seq()) before the event keyed (until, until_seq) ran, which is
  /// where it would otherwise have taken it. Numbers break ties in
  /// schedule order, so the early number is exact unless some other number
  /// is taken for the same instant `at` in between: that number would sort
  /// after it instead of before. So until (until, until_seq) has passed,
  /// taking a number for `at` first revokes the claim (and the holder
  /// schedules its event the ordinary way). Claims live in a small
  /// direct-mapped table: take the early number only if claimable(at)
  /// (another live claim may hold the slot), and claim right after taking
  /// it. release_instant() drops a claim before its event passes.
  [[nodiscard]] bool claimable(Time at) const noexcept;
  void claim_instant(Time at, Time until, std::uint64_t until_seq,
                     EarlyNumberHolder* holder) noexcept;
  void release_instant(Time at, const EarlyNumberHolder* holder) noexcept;

  /// Runs until the event set drains or `stop()` is called.
  void run();

  /// Runs events with time <= `deadline`, then advances the clock to
  /// `deadline` (even if idle), so measurements read a consistent clock.
  /// If `stop()` ends the drain early, the clock stays at the last executed
  /// event, so a later run_until() resumes with time moving forward.
  void run_until(Time deadline);

  /// Runs exactly one event if any is pending and `stop()` is not in
  /// effect. Returns false when nothing ran.
  bool step();

  /// Runs every runnable event with time strictly before `end_exclusive`,
  /// including events those events schedule back inside the window. Unlike
  /// `run_until`, it neither advances the clock past the last executed
  /// event nor publishes per-run profiling — the parallel driver
  /// (sim::ParSim) aggregates churn across lanes itself. Honors `stop()`.
  /// Returns the number of events executed.
  std::uint64_t run_window(Time end_exclusive);

  /// Advances the clock to `t` if it is ahead (idle catch-up at a window
  /// barrier); never moves time backwards.
  void advance_to(Time t) noexcept {
    if (t > now_) {
      now_ = t;
      pos_seq_ = 0;  // nothing due at `t` has run yet
    }
  }

  /// Earliest runnable event time, or `fallback` when the set is empty.
  [[nodiscard]] Time next_event_time(Time fallback) const {
    return queue_.next_time(fallback);
  }

  /// Makes `run`/`run_until`/`run_window` return after the current event
  /// completes.
  void stop() noexcept { stopped_ = true; }

  /// Whether `stop()` was requested and not yet cleared by `run`/
  /// `run_until`. A stopped lane is excluded from parallel window
  /// scheduling until restarted.
  [[nodiscard]] bool stop_requested() const noexcept { return stopped_; }

  /// Lifetime schedule()/cancel() totals from the pending-event set. The
  /// parallel driver sums these across lane simulators to publish the
  /// self-profiler churn counters exactly once per experiment.
  [[nodiscard]] std::uint64_t scheduled_total() const noexcept {
    return queue_.scheduled_count();
  }
  [[nodiscard]] std::uint64_t cancelled_total() const noexcept {
    return queue_.cancelled_count();
  }

  /// Overrides the queue-depth counter-track name. Must be called before
  /// the first traced event. The parallel driver renames each lane's track
  /// ("sim.queue_depth#p0", ...) because merged lane traces share one ring
  /// and fiveg_trace_check enforces per-track time monotonicity.
  void set_depth_track(std::string name) { depth_track_ = std::move(name); }

  /// Number of events executed so far (diagnostic / perf benches); elided
  /// events are not executed.
  [[nodiscard]] std::uint64_t executed_events() const noexcept {
    return executed_;
  }

  /// Pending-event-set occupancy (lazy-deletion count; see
  /// EventQueue::size).
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_.size();
  }

  /// Deepest the pending set has ever been. Only tracked while an
  /// observability scope is installed; 0 otherwise.
  [[nodiscard]] std::size_t queue_depth_high_water() const noexcept {
    return depth_hwm_;
  }

 private:
  struct Claim {
    Time at = 0;
    Time until = 0;
    std::uint64_t until_seq = 0;
    EarlyNumberHolder* holder = nullptr;
  };
  static constexpr unsigned kClaimBits = 8;
  static constexpr std::size_t kClaimSlots = std::size_t{1} << kClaimBits;

  // Per-label wall-time sampling: each label's first kTimeAllFirst events
  // are all timed, later ones about one in kSampleEvery. A sample enters
  // sim.callback_wall_us.<label> weighted by the events it stands for, and
  // each drain ends by entering its untimed remainder at the label's
  // latest sample, so the digest count always equals sim.events.<label>
  // and its sum is an estimate of the label's wall time.
  static constexpr std::uint64_t kTimeAllFirst = 16;
  static constexpr std::uint64_t kSampleEvery = 16;

  // Cached per-label metric handles, found by label pointer identity, and
  // the label's sampling state.
  struct LabelStats {
    const char* label;
    obs::Counter* count;
    obs::Digest* wall_us;
    std::uint64_t events = 0;   // run by this simulator
    std::uint64_t untimed = 0;  // counted, not yet in wall_us
    double last_us = 0.0;       // latest sampled wall time
  };

  // The one dispatch loop: runs due events (time <= `last`) until none is
  // left, `stop()` is called or `max_events` have run; returns how many ran.
  std::uint64_t drain(
      Time last,
      std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max());
  // Out-of-line slow path: executes `e` with counting/timing/tracing.
  void observed_step(EventQueue::Popped& e);
  std::size_t stats_index(const char* label);
  // Revokes a live claim on `at` (claim_instant) before a number is taken
  // for it; a claim whose event has passed is dropped silently.
  void guard_instant(Time at) {
    if (!claimed_) return;  // never claimed: always so when observed
    Claim& c = claims_[claim_slot(at)];
    if (c.holder != nullptr && c.at == at) check_claim(c);
  }
  void check_claim(Claim& c);
  [[nodiscard]] static std::size_t claim_slot(Time at) noexcept {
    // Fibonacci hashing onto the kClaimSlots (a power of two) slots.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(at) * 0x9E3779B97F4A7C15ULL) >>
        (64 - kClaimBits));
  }
  // One draw of the sampling generator: true about once in kSampleEvery.
  bool sample_tick() noexcept;
  // Enters every label's untimed events into its wall-time digest.
  void flush_untimed() noexcept;
  // run()/run_until(): clears stop(), drains, and with metrics on observes
  // the drain on the wall clock.
  void run_drain(Time last);

  EventQueue queue_;
  Time now_ = 0;
  // passed() position: events at now_ with a smaller number have run.
  std::uint64_t pos_seq_ = 0;

  // Early-number claims, one per slot (holder null marks a free slot). A
  // claim whose event has passed is stale and simply overwritten.
  std::array<Claim, kClaimSlots> claims_{};
  bool claimed_ = false;  // claim_instant() was ever called
  bool stopped_ = false;
  std::uint64_t executed_ = 0;

  // Observability (null when no scope was installed at construction).
  obs::Tracer* tracer_;
  obs::MetricsRegistry* metrics_;
  std::size_t depth_hwm_ = 0;
  obs::Counter* events_total_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
  std::vector<LabelStats> label_stats_;  // first-seen order
  // State of sample_tick()'s generator; it only picks what gets timed.
  std::uint64_t sample_state_ = 0;
  double last_depth_traced_ = -1.0;
  // Self-profiler churn baselines: run_drain() publishes the delta of
  // each source counter since the previous drain, so per-run numbers stay
  // correct when an experiment drives several run()/run_until() calls.
  std::uint64_t last_scheduled_ = 0;
  std::uint64_t last_cancelled_ = 0;
  std::uint64_t last_heap_allocs_ = 0;
  // Per-instance counter-track name; later instances in the same obs
  // scope get a "#<ordinal>" suffix so timelines never share a track.
  std::string depth_track_ = "sim.queue_depth";
};

}  // namespace fiveg::sim
