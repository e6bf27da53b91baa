#include "sim/parsim.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "fault/fault.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "sim/callable.h"
#include "sim/rng.h"

namespace fiveg::sim {

namespace {

using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

constexpr Time kNever = std::numeric_limits<Time>::max();

Time saturating_add(Time a, Time b) noexcept {
  return a > kNever - b ? kNever : a + b;
}

}  // namespace

/// One partition: its own simulator plus the lane-local observability and
/// fault state installed around every window it executes.
struct ParSim::Lane {
  int index = 0;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<fault::Runtime> fault;
  std::unique_ptr<Simulator> sim;

  // Aggregated on whichever worker ran each window; summed at finish().
  std::uint64_t heap_allocs = 0;
  std::exception_ptr error;
};

struct ParSim::Pool {
  std::vector<std::thread> workers;
  std::mutex mu;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::uint64_t epoch = 0;
  Time window_end = 0;
  int done = 0;
  bool quit = false;
};

namespace {

// Which lane the current thread is executing for (see current_lane()).
thread_local int tls_lane = kNoLane;

struct TlsLaneGuard {
  explicit TlsLaneGuard(int index) : prev(tls_lane) { tls_lane = index; }
  ~TlsLaneGuard() { tls_lane = prev; }
  TlsLaneGuard(const TlsLaneGuard&) = delete;
  TlsLaneGuard& operator=(const TlsLaneGuard&) = delete;
  int prev;
};

}  // namespace

int current_lane() noexcept { return tls_lane; }

ParSim::ParSim(const ParSimConfig& config) : config_(config) {
  if (config_.lanes < 1) {
    throw std::invalid_argument("parsim: lanes must be >= 1");
  }
  // A zero lookahead would make windows empty (no progress); one
  // nanosecond degenerates to time-step synchronisation, which is valid,
  // just slow.
  config_.lookahead = std::max<Time>(config_.lookahead, 1);

  parent_tracer_ = obs::tracer();
  parent_metrics_ = obs::metrics();
  fault::Runtime* parent_fault = fault::runtime();

  // Fallback rule: no parallel structure -> no worker pool. The inline
  // path runs the identical window schedule, so this only affects wall
  // clock, never output.
  int threads = config_.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::clamp(threads, 1, config_.lanes);
  if (config_.lanes == 1 || config_.lookahead < kMinParallelLookahead) {
    threads = 1;
  }
  effective_threads_ = threads;

  // Distinct trace-track namespace per ParSim within one experiment
  // ("sim.queue_depth#p0", "#1.p0", ...): merged lane rings share the
  // parent ring, and fiveg_trace_check wants one timeline per track.
  int ordinal = 0;
  if (parent_metrics_ != nullptr) {
    obs::Counter& instances = parent_metrics_->counter(
        "sim.parsim.instances", obs::MetricClock::kWall);
    ordinal = static_cast<int>(instances.value());
    instances.add();
  }

  control_ = std::make_unique<Simulator>();

  lanes_.reserve(static_cast<std::size_t>(config_.lanes));
  for (int k = 0; k < config_.lanes; ++k) {
    auto lane = std::make_unique<Lane>();
    lane->index = k;
    if (parent_metrics_ != nullptr) {
      lane->metrics = std::make_unique<obs::MetricsRegistry>();
    }
    if (parent_tracer_ != nullptr) {
      lane->tracer =
          std::make_unique<obs::Tracer>(parent_tracer_->capacity());
    }
    if (parent_fault != nullptr) {
      lane->fault = std::make_unique<fault::Runtime>(
          &parent_fault->plan(),
          Rng(parent_fault->seed())
              .fork("lane" + std::to_string(k))
              .seed());
    }
    {
      // The lane simulator must capture the lane scope (its fault arming
      // and cached handles are lane-local from birth).
      obs::ScopedObs scope(lane->tracer.get(), lane->metrics.get());
      fault::ScopedFaults faults(lane->fault.get());
      const std::uint64_t heap0 = Callable::heap_fallbacks();
      lane->sim = std::make_unique<Simulator>();
      lane->heap_allocs += Callable::heap_fallbacks() - heap0;
    }
    std::string track = "sim.queue_depth#";
    if (ordinal > 0) {
      track += std::to_string(ordinal);
      track += '.';
    }
    track += 'p';
    track += std::to_string(k);
    lane->sim->set_depth_track(std::move(track));
    lanes_.push_back(std::move(lane));
  }
}

ParSim::~ParSim() {
  try {
    finish();
  } catch (...) {
    // Destructors stay noexcept; finish() explicitly for error reporting.
  }
  shutdown_workers();
}

Simulator& ParSim::lane(int k) {
  if (k < 0 || k >= lanes()) {
    throw std::out_of_range("parsim: lane index out of range");
  }
  return *lanes_[static_cast<std::size_t>(k)]->sim;
}

std::uint64_t ParSim::executed_events() const {
  std::uint64_t n = control_->executed_events();
  for (const auto& lane : lanes_) n += lane->sim->executed_events();
  return n;
}

void ParSim::with_lane(int k, const std::function<void()>& fn) {
  if (k < 0 || k >= lanes()) {
    throw std::out_of_range("parsim: lane index out of range");
  }
  Lane& lane = *lanes_[static_cast<std::size_t>(k)];
  obs::ScopedObs scope(lane.tracer.get(), lane.metrics.get());
  fault::ScopedFaults faults(lane.fault.get());
  TlsLaneGuard tls(k);
  const std::uint64_t heap0 = Callable::heap_fallbacks();
  fn();
  lane.heap_allocs += Callable::heap_fallbacks() - heap0;
}

void ParSim::step_control() {
  TlsLaneGuard tls(kControlLane);
  const std::uint64_t heap0 = Callable::heap_fallbacks();
  control_->step();
  control_heap_allocs_ += Callable::heap_fallbacks() - heap0;
}

void ParSim::run_lane_window(Lane& lane, Time end_exclusive) {
  obs::ScopedObs scope(lane.tracer.get(), lane.metrics.get());
  fault::ScopedFaults faults(lane.fault.get());
  TlsLaneGuard tls(lane.index);
  const std::uint64_t heap0 = Callable::heap_fallbacks();
  try {
    lane.sim->run_window(end_exclusive);
  } catch (...) {
    // Surface at the barrier (lowest lane index wins, deterministically);
    // stop the lane so no further windows run on a broken world.
    lane.error = std::current_exception();
    lane.sim->stop();
  }
  lane.heap_allocs += Callable::heap_fallbacks() - heap0;
}

void ParSim::run_lanes_window(Time end_exclusive) {
  if (effective_threads_ <= 1) {
    for (auto& lane : lanes_) run_lane_window(*lane, end_exclusive);
    return;
  }
  ensure_workers();
  {
    std::lock_guard<std::mutex> lock(pool_->mu);
    pool_->window_end = end_exclusive;
    pool_->done = 0;
    ++pool_->epoch;
  }
  pool_->work_cv.notify_all();
  std::unique_lock<std::mutex> lock(pool_->mu);
  pool_->done_cv.wait(lock, [this] {
    return pool_->done == static_cast<int>(pool_->workers.size());
  });
}

void ParSim::worker_main(int worker_id) {
  std::uint64_t seen_epoch = 0;
  const int stride = effective_threads_;
  for (;;) {
    Time end_exclusive = 0;
    {
      std::unique_lock<std::mutex> lock(pool_->mu);
      pool_->work_cv.wait(lock, [&] {
        return pool_->quit || pool_->epoch != seen_epoch;
      });
      if (pool_->quit) return;
      seen_epoch = pool_->epoch;
      end_exclusive = pool_->window_end;
    }
    for (int k = worker_id; k < lanes(); k += stride) {
      run_lane_window(*lanes_[static_cast<std::size_t>(k)], end_exclusive);
    }
    {
      std::lock_guard<std::mutex> lock(pool_->mu);
      ++pool_->done;
    }
    pool_->done_cv.notify_one();
  }
}

void ParSim::ensure_workers() {
  if (pool_ != nullptr) return;
  pool_ = std::make_unique<Pool>();
  pool_->workers.reserve(static_cast<std::size_t>(effective_threads_));
  for (int w = 0; w < effective_threads_; ++w) {
    pool_->workers.emplace_back([this, w] { worker_main(w); });
  }
}

void ParSim::shutdown_workers() {
  if (pool_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(pool_->mu);
    pool_->quit = true;
  }
  pool_->work_cv.notify_all();
  for (std::thread& t : pool_->workers) t.join();
  pool_.reset();
}

void ParSim::rethrow_lane_error() {
  for (auto& lane : lanes_) {
    if (lane->error) {
      std::exception_ptr e = lane->error;
      lane->error = nullptr;
      std::rethrow_exception(e);
    }
  }
}

void ParSim::run_until(Time deadline) {
  if (finished_) {
    throw std::logic_error("parsim: run_until() after finish()");
  }
  const auto start = WallClock::now();
  const std::uint64_t before = executed_events();
  for (;;) {
    const Time t_control = control_->stop_requested()
                               ? kNever
                               : control_->next_event_time(kNever);
    Time t_min = kNever;
    for (const auto& lane : lanes_) {
      if (lane->sim->stop_requested()) continue;
      t_min = std::min(t_min, lane->sim->next_event_time(kNever));
    }
    const Time t_next = std::min(t_control, t_min);
    if (t_next == kNever || t_next > deadline) break;
    if (t_control <= t_min) {
      // Global events run serially between windows; at equal timestamps
      // the control lane goes first (the canonical order).
      step_control();
      continue;
    }
    Time end_exclusive = saturating_add(t_min, config_.lookahead);
    end_exclusive = std::min(end_exclusive, t_control);
    if (deadline < kNever) {
      end_exclusive = std::min(end_exclusive, deadline + 1);
    }
    run_lanes_window(end_exclusive);
    ++windows_;
    rethrow_lane_error();
  }
  control_->advance_to(deadline);
  for (auto& lane : lanes_) lane->sim->advance_to(deadline);
  record_run(seconds_since(start), executed_events() - before);
}

void ParSim::record_run(double wall_seconds, std::uint64_t events) {
  if (parent_metrics_ == nullptr || events == 0 || wall_seconds <= 0.0) {
    return;
  }
  parent_metrics_
      ->digest(obs::prof::kPhasePrefix + std::string("simulate"),
               obs::MetricClock::kWall)
      .observe(wall_seconds * 1e3);
}

void ParSim::finish() {
  if (finished_) return;
  finished_ = true;
  shutdown_workers();

  if (parent_metrics_ != nullptr) {
    // Lane registries first (lane-index order), then the aggregate churn:
    // lane windows run on arbitrary worker threads, so the thread-local
    // Callable heap counter and the per-Simulator queue totals are
    // re-aggregated here instead of through Simulator::record_run, which
    // would attribute them to whichever OS thread happened to run last.
    for (const auto& lane : lanes_) {
      if (lane->metrics) parent_metrics_->merge_from(*lane->metrics);
    }
    std::uint64_t scheduled = control_->scheduled_total();
    std::uint64_t cancelled = control_->cancelled_total();
    std::uint64_t heap = control_heap_allocs_;
    for (const auto& lane : lanes_) {
      scheduled += lane->sim->scheduled_total();
      cancelled += lane->sim->cancelled_total();
      heap += lane->heap_allocs;
    }
    parent_metrics_
        ->counter(obs::prof::kScheduledMetric, obs::MetricClock::kWall)
        .add(scheduled);
    parent_metrics_
        ->counter(obs::prof::kCancelledMetric, obs::MetricClock::kWall)
        .add(cancelled);
    parent_metrics_
        ->counter(obs::prof::kHeapAllocMetric, obs::MetricClock::kWall)
        .add(heap);
    // Deterministic structure counter (identical for any thread count).
    parent_metrics_->counter("sim.parsim.windows").add(windows_);
    parent_metrics_
        ->gauge("sim.parsim.threads", obs::MetricClock::kWall)
        .set(static_cast<double>(effective_threads_));
  }
  if (parent_tracer_ != nullptr) {
    for (const auto& lane : lanes_) {
      if (lane->tracer) parent_tracer_->append_from(*lane->tracer);
    }
  }
}

}  // namespace fiveg::sim
