#include "ran/measurement_events.h"

namespace fiveg::ran {

std::string describe(MeasEventType t) {
  switch (t) {
    case MeasEventType::kA1:
      return "Serving cell quality above threshold (stop neighbour search)";
    case MeasEventType::kA2:
      return "Serving cell quality below threshold (start neighbour search)";
    case MeasEventType::kA3:
      return "Neighbour better than serving by an offset for a period "
             "(the main hand-off trigger)";
    case MeasEventType::kA4:
      return "Neighbour quality above a fixed threshold";
    case MeasEventType::kA5:
      return "Serving below threshold1 while neighbour above threshold2";
    case MeasEventType::kB1:
      return "Inter-RAT neighbour quality above a fixed threshold";
    case MeasEventType::kB2:
      return "Serving below threshold1 while inter-RAT neighbour above "
             "threshold2";
  }
  return "unknown";
}

bool ThresholdDetector::update(sim::Time at, double quality_db) {
  if (!armed_) {
    if (lapsed(quality_db)) armed_ = true;
    entering_since_ = kNotEntering;
    return false;
  }
  if (!entered(quality_db)) {
    entering_since_ = kNotEntering;
    return false;
  }
  if (entering_since_ == kNotEntering) entering_since_ = at;
  if (at - entering_since_ >= kIspTimeToTrigger) {
    entering_since_ = kNotEntering;
    armed_ = false;  // one report per excursion
    return true;
  }
  return false;
}

bool A5Detector::update(sim::Time at, double serving_db, double neighbor_db) {
  const bool entered =
      serving_db < threshold1_db_ && neighbor_db > threshold2_db_;
  if (!armed_) {
    if (!entered) armed_ = true;
    entering_since_ = kNotEntering;
    return false;
  }
  if (!entered) {
    entering_since_ = kNotEntering;
    return false;
  }
  if (entering_since_ == kNotEntering) entering_since_ = at;
  if (at - entering_since_ >= kIspTimeToTrigger) {
    entering_since_ = kNotEntering;
    armed_ = false;
    return true;
  }
  return false;
}

bool a3_step(const A3Config& config, sim::Time& entering_since, sim::Time at,
             double serving_db, double neighbor_db) noexcept {
  const bool entering = neighbor_db - config.hysteresis_db > serving_db;
  if (!entering) {
    entering_since = kA3NotEntering;
    return false;
  }
  if (entering_since == kA3NotEntering) entering_since = at;
  if (at - entering_since >= config.time_to_trigger) {
    entering_since = kA3NotEntering;
    return true;
  }
  return false;
}

bool A3Detector::update(sim::Time at, double serving_db, double neighbor_db) {
  return a3_step(config_, entering_since_, at, serving_db, neighbor_db);
}

}  // namespace fiveg::ran
