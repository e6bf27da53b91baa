// Execution-domain self-profiler (fiveg::obs::prof): where the rest of
// fiveg::obs observes the *simulated* network on the sim clock, this module
// observes the simulator process itself — wall-clock phase timing
// (construct / simulate / report), peak-RSS sampling, event-churn and
// allocation counters, and the per-event-label wall-time attribution table
// built on the labeled schedule_at/in seam.
//
// Every profiler metric lives in the kWall clock domain, even the ones that
// happen to be deterministic (event churn): the deterministic kSim
// `counters` object — and therefore every committed golden — never changes
// shape because profiling was on. With no obs::Scope installed the profiler
// costs nothing (the same disabled path BENCH_obs.json guards).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace fiveg::obs::prof {

/// Canonical metric-name prefixes the profiler writes and the aggregation
/// helpers below read back out of a kWall snapshot.
inline constexpr const char* kPhasePrefix = "prof.phase_ms.";
inline constexpr const char* kLabelPrefix = "sim.callback_wall_us.";
inline constexpr const char* kPeakRssMetric = "prof.peak_rss_kb";
inline constexpr const char* kScheduledMetric = "prof.events_scheduled";
inline constexpr const char* kCancelledMetric = "prof.events_cancelled";
inline constexpr const char* kHeapAllocMetric = "prof.callable_heap_allocs";

/// Process peak resident set size in kB (Linux VmHWM via getrusage);
/// 0 when the platform cannot report it. Process-wide: under --jobs N the
/// high-water mark belongs to the whole worker pool, not one run — the
/// per-run ledger field records the mark at run completion time.
[[nodiscard]] std::uint64_t peak_rss_kb();

/// Instantaneous resident set size in kB (/proc/self/statm); 0 when
/// unavailable.
[[nodiscard]] std::uint64_t current_rss_kb();

/// RAII wall-clock phase timer: observes the elapsed milliseconds into the
/// current scope's kWall digest `prof.phase_ms.<phase>` on destruction.
/// With no metrics scope installed, construction is a thread-local load and
/// destruction a null check. `phase` must outlive the object (string
/// literals, in practice).
class ScopedPhase {
 public:
  explicit ScopedPhase(const char* phase);
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase();

 private:
  Digest* digest_ = nullptr;  // null when no scope was installed
  std::chrono::steady_clock::time_point start_;
};

/// One row of the per-phase wall-time table.
struct PhaseRow {
  std::string phase;     // "construct", "simulate", "report", ...
  std::uint64_t count = 0;  // times the phase was entered
  double total_ms = 0.0;
};

/// One row of the per-event-label wall-time attribution table.
struct LabelRow {
  std::string label;        // e.g. "tcp.rto", "net.link_tx"
  std::uint64_t events = 0;
  double total_ms = 0.0;
  double mean_us = 0.0;
};

/// Extracts the `prof.phase_ms.*` digests from a kWall snapshot,
/// sorted by total wall time (descending).
[[nodiscard]] std::vector<PhaseRow> phase_rows(
    const std::vector<MetricSnapshot>& wall);

/// Extracts the `sim.callback_wall_us.<label>` digests from a kWall
/// snapshot into the attribution table, sorted by total wall time
/// (descending). This is "where does wall time go" per run.
[[nodiscard]] std::vector<LabelRow> label_rows(
    const std::vector<MetricSnapshot>& wall);

/// Compact per-run profile summary (the ledger's `prof` object).
struct Summary {
  double construct_ms = 0.0;
  double simulate_ms = 0.0;
  double report_ms = 0.0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t peak_rss_kb = 0;
  std::string top_label;  // hottest event label by wall time; "" if none
  double top_label_ms = 0.0;
};

/// Builds the summary from a kWall snapshot (as captured into
/// ExperimentResult::profile).
[[nodiscard]] Summary summarize(const std::vector<MetricSnapshot>& wall);

/// fiveg_prof flags a run whose Callable heap allocations exceed this
/// fraction of its scheduled events. The event core is built to run
/// allocation-free, so a ratio this high means some per-event capture has
/// outgrown Callable's inline buffer.
inline constexpr double kHighHeapAllocsPerEvent = 0.10;

/// Callable heap allocations per scheduled event; 0 with no events.
[[nodiscard]] double heap_allocs_per_event(const Summary& s);

}  // namespace fiveg::obs::prof
