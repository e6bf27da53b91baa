// The mobility engine: walks a UE along a route through the campus
// deployment, runs the A3 horizontal hand-off machinery and the NSA
// vertical add/drop logic, executes hand-offs with the Appendix-A
// signalling latencies, and records every event — the data source for the
// paper's Figs. 4, 5, 6 and the hand-off halves of Figs. 7-12.
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "geo/route.h"
#include "measure/timeseries.h"
#include "ran/deployment.h"
#include "ran/measurement_events.h"
#include "ran/nsa_signaling.h"
#include "ran/rrc.h"
#include "ran/ue.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace fiveg::ran {

/// One executed hand-off.
struct HandoffRecord {
  sim::Time trigger_at = 0;
  HandoffType type = HandoffType::k4G4G;
  int from_pci = -1;
  int to_pci = -1;
  sim::Time latency = 0;          // control-plane duration = data interruption
  double quality_before_db = 0;   // serving RSRQ at trigger
  double quality_after_db = 0;    // serving RSRQ shortly after completion
  bool after_recorded = false;    // false if the run ended too early
  // The target cell went into (injected) outage while signalling was in
  // flight: the hand-off ended without switching cells.
  bool aborted = false;
};

/// A data-plane interruption window caused by a hand-off.
struct Interruption {
  sim::Time begin = 0;
  sim::Time end = 0;
  HandoffType type = HandoffType::k4G4G;
};

/// NR RSRQ at every mobility sample: the serving cell's (while an NR leg
/// is attached) and the best other NR cell's. Fig. 4 plots both.
struct RsrqTrace {
  measure::TimeSeries nr_serving_db;
  measure::TimeSeries nr_best_other_db;
};

/// How often a hand-off engine samples its UE's radio environment.
inline constexpr sim::Time kMobilitySamplePeriod = sim::from_millis(100);

/// Mobility parameters.
struct MobilityConfig {
  double speed_mps = 1.5;  // the paper walks/bikes at 3-10 km/h
  A3Config a3;
};

/// Event-driven hand-off engine for one UE.
class HandoffEngine {
 public:
  /// All pointers must outlive the engine. `trace` may be null.
  HandoffEngine(sim::Simulator* simulator, const Deployment* deployment,
                MobilityConfig config, sim::Rng rng,
                RsrqTrace* trace = nullptr);

  /// Begins walking `route` from the simulator's current time. The engine
  /// samples until the route is exhausted.
  void start(geo::Route route);

  [[nodiscard]] const std::vector<HandoffRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] const std::vector<Interruption>& interruptions()
      const noexcept {
    return interruptions_;
  }

  /// True while a hand-off is interrupting the data plane at `at`.
  [[nodiscard]] bool data_interrupted(sim::Time at) const noexcept;

  /// UE position at a simulated time (route start anchored at start()).
  [[nodiscard]] geo::Point position_at(sim::Time at) const;

  /// Currently attached cells (nullptr when not attached).
  [[nodiscard]] const Cell* serving_lte() const noexcept { return lte_; }
  [[nodiscard]] bool nr_attached() const noexcept { return nr_ != nullptr; }

  /// A window during which the UE had no serving cell at all (anchor lost
  /// to radio-link failure, re-establishment pending). `end == -1` marks a
  /// gap still open when the run ended.
  struct ServingGap {
    sim::Time begin = 0;
    sim::Time end = -1;
  };
  [[nodiscard]] const std::vector<ServingGap>& serving_gaps() const noexcept {
    return gaps_;
  }
  /// True while the UE is between radio-link failure and re-attachment.
  [[nodiscard]] bool reestablishing() const noexcept {
    return reestablishing_;
  }
  /// Every RRC state change, in time order (starts with the initial
  /// attachment). Audited by fault::InvariantChecker::check_rrc_legality.
  [[nodiscard]] const std::vector<std::pair<sim::Time, RrcState>>&
  rrc_trajectory() const noexcept {
    return rrc_log_;
  }

 private:
  void step();
  // Sector-outage handling (no-ops without an installed fault runtime):
  // drops a dead NR leg, declares radio-link failure on a dead anchor.
  void handle_outages();
  void begin_reestablishment();
  void try_reestablish();
  [[nodiscard]] bool serving_gap_at(sim::Time at) const noexcept;
  [[nodiscard]] RrcState current_rrc_state() const noexcept;
  void note_rrc_state();
  void begin_handoff(HandoffType type, const Cell* from, const Cell* to,
                     double quality_before_db);
  void complete_handoff(std::size_t record_idx, HandoffType type,
                        const Cell* target);
  void sample_quality_after(std::size_t record_idx);
  /// The LTE anchor that must host a given NR cell (co-sited, strongest).
  [[nodiscard]] const Cell* anchor_for(const Cell& nr_cell,
                                       const geo::Point& ue) const;

  sim::Simulator* sim_;
  const Deployment* dep_;
  MobilityConfig config_;
  sim::Rng rng_;
  RsrqTrace* trace_;

  std::optional<geo::Route> route_;
  sim::Time route_start_ = 0;

  const Cell* lte_ = nullptr;
  const Cell* nr_ = nullptr;
  NsaUe nsa_;
  A3Detector a3_nr_;
  A3Detector a3_lte_;
  bool ho_in_progress_ = false;

  std::vector<HandoffRecord> records_;
  std::vector<Interruption> interruptions_;

  // Per-sample measurement scratch, reused every step so the 10 Hz sweep
  // is allocation-free in steady state (fully rewritten each sample).
  std::vector<CellMeasurement> lte_meas_;
  std::vector<CellMeasurement> nr_meas_;

  // Fault injection (null when no fault::Runtime is installed).
  fault::Runtime* fault_ = nullptr;
  bool reestablishing_ = false;
  std::vector<ServingGap> gaps_;
  std::vector<std::pair<sim::Time, RrcState>> rrc_log_;
};

}  // namespace fiveg::ran
