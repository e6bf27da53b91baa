#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "fault/fault.h"
#include "obs/obs.h"
#include "obs/prof.h"

namespace fiveg::sim {

namespace {

using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

}  // namespace

Simulator::Simulator()
    : tracer_(obs::tracer()), metrics_(obs::metrics()) {
  // Experiments that run several simulated timelines (parameter sweeps,
  // policy comparisons) restart time at 0 per Simulator, so each instance
  // gets its own queue-depth counter track ("sim.queue_depth",
  // "sim.queue_depth#1", ...) — one track mixing timelines would violate
  // the per-track time monotonicity fiveg_trace_check enforces. The
  // ordinal is the registry's sim.instances counter, deterministic for
  // any --jobs value.
  if (metrics_ != nullptr) {
    obs::Counter& instances = metrics_->counter("sim.instances");
    if (instances.value() > 0) {
      depth_track_ = "sim.queue_depth#" + std::to_string(instances.value());
    }
    instances.add();
  }
  // The Callable heap counter is thread-local and outlives any one
  // Simulator (worker threads run many experiments back to back), so the
  // churn baseline starts at its current value, not at zero.
  last_heap_allocs_ = Callable::heap_fallbacks();
  // With a fault::Runtime installed on this thread, schedule the plan's
  // window toggles as ordinary events on this timeline; without one this
  // is a no-op (the fault path stays inert).
  fault::arm(*this);
}

EventId Simulator::schedule_at(Time at, const char* label,
                               Callable&& action) {
  at = std::max(at, now_);
  guard_instant(at);
  return queue_.schedule(at, label, std::move(action));
}

bool Simulator::claimable(Time at) const noexcept {
  const Claim& c = claims_[claim_slot(at)];
  return c.holder == nullptr || c.at == at || passed(c.until, c.until_seq);
}

void Simulator::claim_instant(Time at, Time until, std::uint64_t until_seq,
                              EarlyNumberHolder* holder) noexcept {
  Claim& c = claims_[claim_slot(at)];
  assert(c.holder == nullptr || passed(c.until, c.until_seq));
  c = Claim{at, until, until_seq, holder};
  claimed_ = true;
}

void Simulator::release_instant(Time at,
                                const EarlyNumberHolder* holder) noexcept {
  Claim& c = claims_[claim_slot(at)];
  if (c.holder == holder && c.at == at) c.holder = nullptr;
}

void Simulator::check_claim(Claim& c) {
  EarlyNumberHolder* holder = c.holder;
  c.holder = nullptr;
  if (!passed(c.until, c.until_seq)) holder->revoke_early_number();
}

EventId Simulator::schedule_in(Time delay, const char* label,
                               Callable&& action) {
  return schedule_at(now_ + std::max<Time>(delay, 0), label,
                     std::move(action));
}

// The clock must advance to the event's timestamp *before* the callback
// runs: callbacks read now() and schedule relative timers. Each action is
// reset right after it runs, so its captures go before the next pop.
std::uint64_t Simulator::drain(Time last, std::uint64_t max_events) {
  const std::uint64_t before = executed_;
  EventQueue::Popped e;
  if (metrics_ == nullptr && tracer_ == nullptr) {  // disabled fast path
    while (executed_ - before < max_events && !stopped_ &&
           queue_.pop_due(last, e)) {
      now_ = e.at;
      pos_seq_ = e.seq + 1;
      e.action();
      e.action.reset();
      ++executed_;
    }
  } else {
    while (executed_ - before < max_events && !stopped_ &&
           queue_.pop_due(last, e)) {
      now_ = e.at;
      pos_seq_ = e.seq + 1;
      observed_step(e);
      e.action.reset();
      ++executed_;
    }
    flush_untimed();
  }
  return executed_ - before;
}

bool Simulator::step() {
  return drain(std::numeric_limits<Time>::max(), 1) == 1;
}

std::size_t Simulator::stats_index(const char* label) {
  for (std::size_t i = 0; i < label_stats_.size(); ++i) {
    if (label_stats_[i].label == label) return i;
  }
  const std::string suffix = label != nullptr ? label : "(unlabeled)";
  obs::Counter& count = metrics_->counter("sim.events." + suffix);
  label_stats_.push_back(LabelStats{
      label, &count,
      &metrics_->digest("sim.callback_wall_us." + suffix,
                        obs::MetricClock::kWall)});
  return label_stats_.size() - 1;
}

bool Simulator::sample_tick() noexcept {
  // 64-bit LCG (Knuth's MMIX constants); its top bits are the well-mixed
  // ones, and four of them all zero is a 1-in-kSampleEvery draw.
  constexpr std::uint64_t kMul = 6364136223846793005ULL;
  constexpr std::uint64_t kInc = 1442695040888963407ULL;
  sample_state_ = sample_state_ * kMul + kInc;
  static_assert(kSampleEvery == 16, "the draw below keeps the top 4 bits");
  return (sample_state_ >> 60) == 0;
}

void Simulator::observed_step(EventQueue::Popped& e) {
  depth_hwm_ = std::max(depth_hwm_, queue_.size() + 1);  // +1: the popped one

  if (tracer_ != nullptr) {
    if (e.label != nullptr) tracer_->instant(now_, e.label, "sim");
    const auto depth = static_cast<double>(queue_.size());
    if (depth != last_depth_traced_) {
      tracer_->counter(now_, depth_track_, "sim", depth);
      last_depth_traced_ = depth;
    }
  }

  if (metrics_ == nullptr) {
    e.action();
    return;
  }
  if (events_total_ == nullptr) {
    events_total_ = &metrics_->counter("sim.events");
    depth_gauge_ = &metrics_->gauge("sim.queue_depth_hwm");
  }
  // An index, not a reference: a run nested in the action may grow
  // label_stats_. Every event is counted; only a sample is timed (the
  // first kTimeAllFirst of each label, then about one in kSampleEvery),
  // and each sample carries the weight of the untimed events before it.
  const std::size_t i = stats_index(e.label);
  const bool timed = label_stats_[i].events < kTimeAllFirst || sample_tick();
  const auto start = timed ? WallClock::now() : WallClock::time_point{};
  e.action();
  LabelStats& stats = label_stats_[i];
  if (timed) {
    stats.last_us = seconds_since(start) * 1e6;
    stats.wall_us->observe(stats.last_us, stats.untimed + 1);
    stats.untimed = 0;
  } else {
    ++stats.untimed;
  }
  ++stats.events;
  stats.count->add();
  events_total_->add();
  depth_gauge_->update_max(static_cast<double>(depth_hwm_));
}

void Simulator::flush_untimed() noexcept {
  for (LabelStats& stats : label_stats_) {
    if (stats.untimed == 0) continue;
    stats.wall_us->observe(stats.last_us, stats.untimed);
    stats.untimed = 0;
  }
}

void Simulator::run_drain(Time last) {
  stopped_ = false;
  const auto start = metrics_ != nullptr ? WallClock::now()
                                         : WallClock::time_point{};
  const std::uint64_t events = drain(last);
  // Run to completion, everything scheduled so far for the clock's time
  // has run (see passed()).
  if (!stopped_) pos_seq_ = queue_.scheduled_count();
  if (metrics_ == nullptr) return;
  const double wall_seconds = seconds_since(start);
  if (events == 0 || wall_seconds <= 0.0) return;
  // Self-profiler feed. All of it kWall: the churn deltas are in fact
  // deterministic, but keeping every prof.* metric out of the kSim
  // `counters` object is what lets goldens ignore profiling entirely.
  metrics_->digest(obs::prof::kPhasePrefix + std::string("simulate"),
                   obs::MetricClock::kWall)
      .observe(wall_seconds * 1e3);
  const std::uint64_t scheduled = queue_.scheduled_count();
  const std::uint64_t cancelled = queue_.cancelled_count();
  const std::uint64_t heap = Callable::heap_fallbacks();
  metrics_->counter(obs::prof::kScheduledMetric, obs::MetricClock::kWall)
      .add(scheduled - last_scheduled_);
  metrics_->counter(obs::prof::kCancelledMetric, obs::MetricClock::kWall)
      .add(cancelled - last_cancelled_);
  metrics_->counter(obs::prof::kHeapAllocMetric, obs::MetricClock::kWall)
      .add(heap - last_heap_allocs_);
  last_scheduled_ = scheduled;
  last_cancelled_ = cancelled;
  last_heap_allocs_ = heap;
}

void Simulator::run() { run_drain(std::numeric_limits<Time>::max()); }

void Simulator::run_until(Time deadline) {
  run_drain(deadline);
  if (!stopped_) now_ = std::max(now_, deadline);
}

std::uint64_t Simulator::run_window(Time end_exclusive) {
  return drain(end_exclusive - 1);
}

}  // namespace fiveg::sim
