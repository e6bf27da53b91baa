// 3GPP measurement-report events (Table 5 of the paper). The serving cell
// configures these; the UE reports them; the network reacts — in the
// measured ISP's configuration only A3 actually triggers hand-offs, with a
// 3 dB RSRQ hysteresis sustained for 324 ms.
#pragma once

#include <string>

#include "sim/time.h"

namespace fiveg::ran {

/// Hand-off related measurement events as defined in 36.331/38.331.
enum class MeasEventType { kA1, kA2, kA3, kA4, kA5, kB1, kB2 };

/// Human-readable description (mirrors the paper's Table 5).
[[nodiscard]] std::string describe(MeasEventType t);

/// The ISP's timeToTrigger, shared by every measurement event.
inline constexpr sim::Time kIspTimeToTrigger = sim::from_millis(324);

/// A3 trigger configuration, per Eq. (1) of the paper:
///   Mn + Ofn + Ocn - Hys > Ms + Ofs + Ocs + Off
/// sustained for `time_to_trigger`. The measured ISP sets every offset
/// (Off and the frequency/cell offsets) to 0, so the test is Mn - Hys > Ms.
struct A3Config {
  double hysteresis_db = 3.0;   // the ISP's configured RSRQ gap
  sim::Time time_to_trigger = kIspTimeToTrigger;
};

/// Threshold event evaluator for A1/A2/A4/B1-style events: fires when a
/// quality stays above (or below) a threshold for kIspTimeToTrigger, with
/// kHysteresisDb of hysteresis on the leaving side to suppress flapping.
class ThresholdDetector {
 public:
  enum class Direction { kAbove, kBelow };

  static constexpr double kHysteresisDb = 1.0;

  ThresholdDetector(Direction direction, double threshold_db)
      : direction_(direction), threshold_db_(threshold_db) {}

  /// Feeds one quality sample; true exactly when the event fires. After
  /// firing, the condition must lapse (past the hysteresis) and re-enter
  /// before it can fire again — one report per excursion, like the UE's.
  bool update(sim::Time at, double quality_db);

  void reset() noexcept {
    entering_since_ = kNotEntering;
    armed_ = true;
  }

 private:
  static constexpr sim::Time kNotEntering = -1;

  [[nodiscard]] bool entered(double q) const noexcept {
    return direction_ == Direction::kAbove ? q > threshold_db_
                                           : q < threshold_db_;
  }
  [[nodiscard]] bool lapsed(double q) const noexcept {
    return direction_ == Direction::kAbove
               ? q < threshold_db_ - kHysteresisDb
               : q > threshold_db_ + kHysteresisDb;
  }

  Direction direction_;
  double threshold_db_;
  sim::Time entering_since_ = kNotEntering;
  bool armed_ = true;
};

/// A5 evaluator: serving below threshold1 while the neighbour is above
/// threshold2, sustained for kIspTimeToTrigger.
class A5Detector {
 public:
  A5Detector(double threshold1_db, double threshold2_db)
      : threshold1_db_(threshold1_db), threshold2_db_(threshold2_db) {}

  bool update(sim::Time at, double serving_db, double neighbor_db);

  void reset() noexcept {
    entering_since_ = kNotEntering;
    armed_ = true;
  }

 private:
  static constexpr sim::Time kNotEntering = -1;

  double threshold1_db_;
  double threshold2_db_;
  sim::Time entering_since_ = kNotEntering;
  bool armed_ = true;
};

/// Sentinel for "no dwell in progress" in the A3 step helpers below.
inline constexpr sim::Time kA3NotEntering = -1;

/// Pure A3 evaluation step, shared by A3Detector and the cohort sweep
/// (ran::UeCohort keeps one `entering_since` slot per UE in a flat
/// array). Feeds one (serving, neighbour) sample at `at`, advancing the
/// dwell clock held in `entering_since` (kA3NotEntering when idle), and
/// returns true exactly when the event fires — then the dwell resets, so
/// a new one is required to re-fire.
[[nodiscard]] bool a3_step(const A3Config& config, sim::Time& entering_since,
                           sim::Time at, double serving_db,
                           double neighbor_db) noexcept;

/// Stateful A3 evaluator: feed (serving, neighbour) quality samples; fires
/// once the entering condition holds continuously for time_to_trigger.
class A3Detector {
 public:
  explicit A3Detector(A3Config config = {}) : config_(config) {}

  /// Feeds one measurement pair at time `at`; returns true exactly when
  /// the event fires (then resets, so a new dwell is required to re-fire).
  bool update(sim::Time at, double serving_db, double neighbor_db);

  /// Clears any in-progress dwell (e.g. after a hand-off).
  void reset() noexcept { entering_since_ = kNotEntering; }

  [[nodiscard]] const A3Config& config() const noexcept { return config_; }

 private:
  static constexpr sim::Time kNotEntering = -1;

  A3Config config_;
  sim::Time entering_since_ = kNotEntering;
};

}  // namespace fiveg::ran
