// Conservative-lookahead parallel discrete-event simulation. A ParSim
// partitions one experiment's timeline into `lanes` independent
// sub-simulators (sector / link domains) plus one control lane for global
// events, and advances the lanes in lock-step windows:
//
//   window = [t_min, min(t_min + lookahead, t_control, deadline+1))
//
// where t_min is the earliest pending lane event and `lookahead` is the
// minimum cross-lane influence delay derived from the scenario's physical
// structure (propagation + wireline delays bound how soon one partition
// can affect another). Inside a window every lane runs its own (time, seq)
// FIFO queue sequentially; windows from different lanes run on worker
// threads. Lanes exchange no events: the lookahead sets the window width,
// and is the bound any future cross-lane exchange must respect.
//
// Determinism contract: the merged output is a pure function of the event
// content, never of thread scheduling. Each lane gets its own
// obs::MetricsRegistry / obs::Tracer / fault::Runtime (installed
// thread-locally around every lane window, so handle-caching layers stay
// lane-local); finish() folds them into the creating scope in lane-index
// order. Running with --sim-threads 1 executes the identical window
// schedule inline, which is why any thread count produces byte-identical
// KPIs, traces and goldens.
//
// Fallback rule: when the scenario gives no parallel structure (a single
// lane, a lookahead below `kMinParallelLookahead`, or threads <= 1) no
// worker pool is created and the same canonical schedule runs inline.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/lane.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace fiveg::sim {

/// Below this lookahead the partitions couple too tightly for windows to
/// amortise barrier cost; ParSim falls back to the inline schedule.
inline constexpr Time kMinParallelLookahead = 100 * kMicrosecond;

struct ParSimConfig {
  /// Number of event-timeline partitions (>= 1).
  int lanes = 1;
  /// Worker threads for lane windows; <= 0 means hardware concurrency.
  /// Clamped to `lanes`. The thread count never affects output.
  int threads = 1;
  /// Conservative cross-lane influence bound: the width of a lock-step
  /// window. Clamped to >= 1 ns.
  Time lookahead = kMillisecond;
};

class ParSim {
 public:
  /// Captures the calling thread's obs::Scope and fault::Runtime as the
  /// "parent" context, then builds per-lane registries/tracers/fault
  /// runtimes and one Simulator per lane (each lane's fault runtime is a
  /// deterministic "lane<k>" fork of the parent's seed, armed on that
  /// lane's timeline).
  explicit ParSim(const ParSimConfig& config);
  ~ParSim();
  ParSim(const ParSim&) = delete;
  ParSim& operator=(const ParSim&) = delete;

  [[nodiscard]] int lanes() const noexcept {
    return static_cast<int>(lanes_.size());
  }
  [[nodiscard]] Time lookahead() const noexcept { return config_.lookahead; }
  /// Worker threads for lane windows; 1 when the fallback is taken.
  /// Purely informational: output is identical either way.
  [[nodiscard]] int effective_threads() const noexcept {
    return effective_threads_;
  }
  /// Lock-step windows executed so far (a pure function of the event
  /// structure, identical for any thread count).
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
  /// Events executed across the control lane and all partitions.
  [[nodiscard]] std::uint64_t executed_events() const;

  /// Lane simulators: build each partition's world against its own lane
  /// (inside with_lane(), so cached metric handles stay lane-local).
  [[nodiscard]] Simulator& lane(int k);
  /// The serial control lane for global events (reporting sweeps, phase
  /// changes). Control events run between windows, before any lane event
  /// at the same timestamp.
  [[nodiscard]] Simulator& control() noexcept { return *control_; }

  /// Runs `fn` with lane k's observability scope + fault runtime
  /// installed on the calling thread. All lane-world construction must
  /// happen here: layers cache registry handles at construction, and the
  /// cache must point into the lane's registry, not the experiment's.
  void with_lane(int k, const std::function<void()>& fn);

  /// Advances every lane to `deadline` (inclusive, like
  /// Simulator::run_until) through the lock-step window schedule, then
  /// idle-advances all clocks to `deadline`. Rethrows the first lane
  /// exception (lowest lane index of the earliest failing window).
  void run_until(Time deadline);

  /// Folds every lane's metrics/trace into the parent scope in lane-index
  /// order and publishes the aggregated self-profiler churn
  /// (prof.events_scheduled / cancelled / callable_heap_allocs) exactly
  /// once, summed across lanes, control and every worker thread.
  /// Idempotent; the destructor calls it if the experiment did not.
  void finish();

 private:
  // Partition state, defined in parsim.cpp.
  struct Lane;

  void run_lane_window(Lane& lane, Time end_exclusive);
  void run_lanes_window(Time end_exclusive);
  void step_control();
  void rethrow_lane_error();
  void ensure_workers();
  void shutdown_workers();
  void worker_main(int worker_id);
  void record_run(double wall_seconds, std::uint64_t events);

  ParSimConfig config_;
  int effective_threads_ = 1;
  std::uint64_t windows_ = 0;
  std::uint64_t control_heap_allocs_ = 0;
  bool finished_ = false;

  // Parent context captured at construction (all may be null).
  obs::Tracer* parent_tracer_ = nullptr;
  obs::MetricsRegistry* parent_metrics_ = nullptr;

  std::unique_ptr<Simulator> control_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  // Worker pool state lives out-of-line so <thread>/<mutex> stay out of
  // this header (and out of every Simulator user).
  struct Pool;
  std::unique_ptr<Pool> pool_;
};

}  // namespace fiveg::sim
