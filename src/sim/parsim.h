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
// threads. Because a cross-lane send must land at least `lookahead` after
// its sender's clock, no event scheduled during a window can fall inside
// that same window on another lane — the conservative-synchronisation
// invariant that makes the parallel schedule equivalent to the serial one.
//
// Determinism contract: the merged output is a pure function of the event
// content, never of thread scheduling. Each lane gets its own
// obs::MetricsRegistry / obs::Tracer / fault::Runtime (installed
// thread-locally around every lane window, so handle-caching layers stay
// lane-local); finish() folds them into the creating scope in lane-index
// order. Cross-lane mailboxes are drained at window barriers in a
// canonical (time, source lane, ticket) order before seq numbers are
// assigned. Running with --sim-threads 1 executes the identical window
// schedule inline, which is why any thread count produces byte-identical
// KPIs, traces and goldens.
//
// Fallback rule: when the scenario gives no parallel structure (a single
// lane, a lookahead below `kMinParallelLookahead`, or threads <= 1) no
// worker pool is created and the same canonical schedule runs inline.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/callable.h"
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
  /// Conservative cross-lane influence bound: a send() from inside a lane
  /// must target a time >= sender now + lookahead. Clamped to >= 1 ns.
  Time lookahead = kMillisecond;
};

/// Handle for a cross-lane event, usable with ParSim::cancel from any
/// lane. (source lane, per-source ticket) — stable across thread counts.
struct CrossEventId {
  int src_lane = kNoLane;
  std::uint64_t ticket = 0;
};

class ParSim {
 public:
  // Opaque partition state; defined in parsim.cpp (the thread-local lane
  // context needs to name it).
  struct Lane;

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
  /// True when lane windows will run on worker threads (fallback not
  /// taken). Purely informational: output is identical either way.
  [[nodiscard]] bool parallel_active() const noexcept {
    return effective_threads_ > 1;
  }
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

  /// Schedules `action` on `to_lane` (a lane index or kControlLane) at
  /// absolute time `at`. From inside a lane window the send is staged and
  /// applied at the next barrier, and `at` must be >= the sender's now()
  /// + lookahead (throws std::logic_error below the horizon — that is the
  /// conservative invariant, not a tunable). From the control lane or
  /// from outside run_until() the event is inserted immediately.
  CrossEventId send(int to_lane, Time at, const char* label,
                    Callable&& action);

  /// Cancels a cross-lane event. Staged like send() when called from a
  /// lane window; a cancel that reaches the barrier after its event fired
  /// is a deterministic no-op (events closer than the lookahead horizon
  /// cannot be recalled — same outcome for every thread count).
  void cancel(const CrossEventId& id);

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
  void run_lane_window(Lane& lane, Time end_exclusive);
  void run_lanes_window(Time end_exclusive);
  void step_control();
  void drain_mailbox(Time window_start);
  void rethrow_lane_error();
  void ensure_workers();
  void shutdown_workers();
  void worker_main(int worker_id);
  void record_run(double wall_seconds, std::uint64_t events);

  ParSimConfig config_;
  int effective_threads_ = 1;
  std::uint64_t windows_ = 0;
  std::uint64_t control_heap_allocs_ = 0;
  // Cancels issued from the serial region (control thread only). Staged
  // sends/cancels are counted on their Lane (send_seq / cancel_seq, each
  // mutated only by the thread running that lane's window) and the totals
  // are summed race-free in finish(); direct sends reuse control_send_seq_.
  std::uint64_t control_cancels_ = 0;
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

  // Cross-lane bookkeeping (control thread only, mutated at barriers).
  struct Resolved {
    int to_lane = kNoLane;
    EventId id = 0;
    Time at = 0;
  };
  std::map<std::pair<int, std::uint64_t>, Resolved> resolved_;
  std::uint64_t control_send_seq_ = 0;
};

}  // namespace fiveg::sim
