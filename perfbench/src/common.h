// Shared plumbing of the repository benchmark: seeded input generation,
// output checksums, counted correctness checks, the metric tables every
// run prints, and the reader that turns the self-profiler's snapshots
// (obs::prof) into per-layer numbers.
//
// The benchmark drives the fiveg library only through its public headers
// and adds no instrumentation to it: layer time comes either from the
// profiler the library already has, or from timers around the calls the
// benchmark itself makes.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] double median(std::vector<double> values);

/// The q-quantile (0 <= q <= 1) of `values`, interpolated between order
/// statistics; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// The quantile of lap and set-up times the end-to-end metrics report: the
/// lower quartile. Co-tenants on a shared host slow cache-bound code by up
/// to 1.7x in bursts from milliseconds to minutes, which only ever adds
/// time. The fast quarter of many repeats of the same short piece of work
/// is the code's own cost; between runs it moves several times less than
/// the median does (a 10 ms heap-bound kernel on a 4-vCPU shared Xeon
/// host, 10 s windows: 3 % vs 14 % quartile spread).
inline constexpr double kReportQuantile = 0.25;

/// The timed phase of one iteration, split into laps at points where every
/// iteration has done the same work (a slice of simulated time, one
/// experiment), so the same lap can be compared across iterations.
class Laps {
 public:
  Laps() : last_(Clock::now()) {}
  /// Ends the current lap now and starts the next.
  void lap() {
    const auto now = Clock::now();
    times_.push_back(std::chrono::duration<double>(now - last_).count());
    last_ = now;
  }
  /// Records a lap timed elsewhere.
  void add(double seconds) { times_.push_back(seconds); }
  [[nodiscard]] const std::vector<double>& times() const noexcept {
    return times_;
  }

 private:
  Clock::time_point last_;
  std::vector<double> times_;
};

/// The reported time of the timed phase: for each lap, its kReportQuantile
/// over the iterations, summed over the laps. Every iteration must have as
/// many laps as the first; 0 when there are none.
[[nodiscard]] double lapwise_quantile(
    const std::vector<std::vector<double>>& laps, double q);

/// Workload input generator (splitmix64). The standard <random>
/// distributions are implementation-defined, so the benchmark draws from
/// this instead: one --seed gives the same inputs with any compiler.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// FNV-1a over the deterministic outputs of one iteration. Only semantic
/// outputs go in (bytes, counts, measurement bits), never event counts, so
/// an optimisation that removes events keeps the checksum.
class Checksum {
 public:
  void add(std::uint64_t v);
  void add(double v);  // exact bit pattern
  void add(std::string_view s);
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Correctness checks are counted, never fatal: a broken invariant raises
/// the failed count and the run still prints its metrics.
class Checks {
 public:
  void require(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// The first few failure descriptions, for the diagnostic line.
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Deliberate breakage for the benchmark's own tests: it must show up in
/// the failed count without aborting the run.
enum class Sabotage { kNone, kChecksum, kInvariant };

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Sabotage sabotage = Sabotage::kNone;
  std::string work_dir = ".bench_build/work";
  std::string golden_dir = "bench/golden";
};

/// Per-iteration call timer for the benchmark's own calls into a layer.
/// Counting is always on; the clock is read only while `on` (traced runs),
/// so untraced runs pay one branch per call.
struct CallTimer {
  bool on = false;
  std::uint64_t calls = 0;
  double seconds = 0.0;

  template <typename Fn>
  void time(Fn&& fn) {
    ++calls;
    if (!on) {
      fn();
      return;
    }
    const auto start = Clock::now();
    fn();
    seconds += seconds_since(start);
  }
  [[nodiscard]] double us_per_call() const {
    return calls > 0 ? seconds * 1e6 / static_cast<double>(calls) : 0.0;
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The per-layer table of a traced run. Every workload prints every row;
/// a layer a workload does not exercise reads 0, which is itself the
/// prediction for that pairing.
class LayerTable {
 public:
  LayerTable();
  void set(const std::string& name, double value);
  void add(const std::string& name, double value);
  void max(const std::string& name, double value);
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] std::vector<Metric> rows() const;

  /// Folds one obs scope's snapshots in (kWall profile + kSim counters):
  /// per-label events/ms, the label-prefix rollup, phase split, churn and
  /// allocation counters, queue-depth high-water mark, ParSim windows.
  /// Call once per scope; finish() derives the ratios afterwards.
  void add_profile(const std::vector<fiveg::obs::MetricSnapshot>& wall,
                   const std::vector<fiveg::obs::MetricSnapshot>& sim);
  void finish();

 private:
  std::map<std::string, double> values_;
  // Profiler totals the derived rows are computed from.
  double scheduled_ = 0, heap_allocs_ = 0, callback_ms_ = 0;
};

/// Canonical per-layer metric names and units, in print order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
layer_metric_specs();

/// Canonical end-to-end metric names and units, in print order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
end_to_end_metric_specs();

/// What one workload run hands back to main().
struct Outcome {
  Checks checks;
  std::vector<std::pair<std::string, std::string>> inputs;  // printed as-is
  std::string checksum;        // of the untraced iterations
  std::string traced_checksum; // empty unless traced
  int threads = 1;
  std::size_t iterations = 0;
  std::size_t traced_iterations = 0;
  // End-to-end readings (untraced iterations only).
  std::vector<double> wall_s, setup_s;
  std::vector<std::vector<double>> laps;  // per iteration
  double host_slowdown = 1.0;             // HostGauge::slowdown()
  std::uint64_t gauge_digest = 0;
  // Peak resident memory after the first iteration, before the gauge has
  // allocated anything.
  std::uint64_t peak_rss_kb = 0;
  double units = 0;            // work units of one iteration
  std::string unit_name;       // "packets", "ue_samples", "runs"
  // Traced readings.
  LayerTable layers;
  std::vector<double> traced_wall_s;
};

/// Records `got` as the iteration's checksum: the first iteration sets the
/// expectation, every later one must repeat it exactly.
void check_repeat(Checks& checks, std::string& expected, const Checksum& got,
                  std::size_t iteration, Sabotage sabotage);

/// Spreads a single-threaded workload's iterations evenly over the CPUs the
/// process may use: iteration i runs pinned to the (i mod n)-th of them.
/// On a host shared with other tenants one core at a time is often slowed
/// for tens of seconds; rotating keeps that to a share of the samples,
/// which the median then discounts. The original mask is restored on
/// destruction. A no-op when disabled or when the mask cannot be read.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled);
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation();
  void pin(std::size_t iteration);

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;  // empty = disabled
};

/// Whole-run time budget: keeps iterating until `seconds` have passed and at
/// least `min_iterations` are done.
class Budget {
 public:
  Budget(double seconds, std::size_t min_iterations)
      : seconds_(seconds), min_(min_iterations) {}
  [[nodiscard]] bool more(std::size_t done) const {
    return done < min_ || seconds_since(start_) < seconds_;
  }

 private:
  Clock::time_point start_ = Clock::now();
  double seconds_;
  std::size_t min_;
};

std::string format_double(double v);

}  // namespace perfbench
