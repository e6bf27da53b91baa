// HostGauge: reads how fast the shared host is running at the moment.
//
// Co-tenants on the host slow cache-bound code for minutes at a time, by
// 10-25 %, so one run's times sit higher or lower than the next run's
// whatever the estimator. The gauge times a fixed piece of work shaped like
// the simulator's hot path (a binary-heap event queue of 16k pending
// events, a heap-allocated payload per event, each event reading a random
// word of a 1 MB table) in short laps between iterations, on the same CPU
// the iterations run on. It lives in the benchmark, not the library, so no
// change to src/ moves it, and its lower-quartile lap time divided by
// kNominalLapS is the host's slowdown during the run. The table stays
// below the 2 MB huge-page size: with 8 MB, whether a process got huge
// pages moved the gauge by 25 % between runs on a quiet host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostGauge {
 public:
  /// Lower-quartile lap time of the gauge on an undisturbed host of the
  /// kind the baseline was recorded on (4 vCPU Intel Xeon, GCC 12.2,
  /// RelWithDebInfo); reported times are scaled to it.
  static constexpr double kNominalLapS = 0.007;

  /// Runs `laps` laps and records each one's wall time. The working set is
  /// allocated on the first call.
  void sample(std::size_t laps);
  /// Lower-quartile lap time over every lap so far; kNominalLapS if none.
  [[nodiscard]] double lap_s() const;
  /// lap_s() / kNominalLapS: above 1 when the host runs slow.
  [[nodiscard]] double slowdown() const { return lap_s() / kNominalLapS; }
  /// A value the laps compute, so the work cannot be optimised away; the
  /// same after every lap.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  void fill_table();
  std::uint64_t lap();

  std::vector<std::uint64_t> table_;
  std::vector<double> laps_;
  std::uint64_t digest_ = 0;
};

}  // namespace perfbench
