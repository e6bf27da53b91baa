// City-scale UE core: one cohort holds the state of N UEs in contiguous
// structure-of-arrays form (positions, serving-cell indices, A3/NSA dwell
// clocks, RRC phase) and advances all of them with one batched sweep per
// sample period — a single labeled "ran.cohort_sweep" event instead of N
// per-UE mobility events.
//
// The measurement half fills flat per-RAT rows (rsrp/sinr/rsrq, one value
// per (UE, cell)) in UE-index order. A stale UE gets both RATs' rows from
// one Deployment::measure_rows() pass, so each mast's geometry is computed
// once for the LTE and the NR row. Rows are pure functions of (UE position
// bits, fault coverage offset), so a row whose key is unchanged is reused
// verbatim — exact, because a recompute would bit-identically reproduce
// it — and every computed value matches the per-site
// RadioEnvironment::rsrp_dbm() reference followed by derive_interference()
// bit for bit (property tested in tests/cohort_test.cpp). The
// rows_computed/rows_reused accounting is per RAT and per request: filling
// the other RAT's row early counts nothing until that RAT is asked for.
//
// The trigger half iterates UEs in index order (so hand-off latency draws
// consume the cohort's single RNG in a deterministic sequence) and applies
// the same pure helpers as the per-UE engine: a3_step for horizontal
// hand-offs, nsa_step for NR leg add/drop. Cohort semantics are
// deliberately simpler than HandoffEngine's event interleaving: a trigger
// applies the serving change immediately and blanks the UE's trigger
// evaluation until the sampled signalling latency elapses. Per-UE KPIs
// never become per-UE series — they aggregate into {cohort=<name>}-labeled
// digests and counters via obs::metrics().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "geo/route.h"
#include "ran/deployment.h"
#include "ran/measurement_events.h"
#include "ran/nsa_signaling.h"
#include "ran/rrc.h"
#include "ran/ue.h"
#include "sim/lane.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace fiveg::ran {

/// Cohort-wide sampling and trigger configuration.
struct CohortConfig {
  std::string name = "cohort";  // digest/counter label value
  sim::Time sample_period = sim::from_millis(200);
  // Partition affinity (sim::ParSim lane index). Default: unpinned. A
  // pinned cohort verifies at every sweep that it is executing on its
  // declared lane — the cheap guard against accidentally scheduling a
  // partition's work onto a foreign timeline, where its lane-local
  // metric handles and fault runtime would race.
  int domain = sim::kNoLane;
};

/// A batch of UEs stepped together against one Deployment.
class UeCohort {
 public:
  /// Flat per-RAT measurement rows: the value for (ue, cell) lives at
  /// [ue * n_cells + cell], cells indexed as in Deployment::cells(rat).
  struct MeasBlock {
    std::size_t n_cells = 0;
    std::vector<double> rsrp_dbm, sinr_db, rsrq_db;
    // Accounting keys: the exact position bit patterns and fault coverage
    // offset of the last measure_batch() for this RAT. A request at the
    // same key counts as reused, any other as computed.
    std::vector<std::uint64_t> key_x, key_y;
    std::vector<double> key_offset_db;
    std::vector<std::uint8_t> valid;

    /// Where `ue`'s row is written.
    [[nodiscard]] MeasRow row(std::size_t ue) {
      return {rsrp_dbm.data() + ue * n_cells, sinr_db.data() + ue * n_cells,
              rsrq_db.data() + ue * n_cells};
    }
  };

  /// Deterministic sweep accounting (pure function of the run).
  struct Stats {
    std::uint64_t sweeps = 0;
    std::uint64_t rows_computed = 0;
    std::uint64_t rows_reused = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t a3_triggers = 0;
    std::uint64_t vertical_handoffs = 0;
  };

  /// `deployment` must outlive the cohort. The cohort owns one RNG; all
  /// its draws happen in UE-index order during the trigger phase.
  UeCohort(const Deployment* deployment, CohortConfig config, sim::Rng rng);

  /// Adds a stationary UE at `pos`; returns its stable index.
  int add_stationary(geo::Point pos);

  /// Adds a UE walking/driving `route` at `speed_mps` from sweep start;
  /// the route is held at its end once exhausted. Returns the UE index.
  int add_route(geo::Route route, double speed_mps);

  [[nodiscard]] std::size_t size() const noexcept { return x_.size(); }
  [[nodiscard]] const CohortConfig& config() const noexcept {
    return config_;
  }

  /// Moves every routed UE to its position at `at`.
  void advance_positions(sim::Time at);

  /// Fills (or reuses) every UE's measurement row for `rat`. A UE whose
  /// rows are stale gets both RATs' rows in one pass.
  const MeasBlock& measure_batch(radio::Rat rat);

  /// One full sweep at `now`: positions, both RAT measurement batches,
  /// then the per-UE trigger phase in index order.
  void sweep(sim::Time now);

  /// Schedules one labeled "ran.cohort_sweep" event per sample period on
  /// `simulator`, starting now and stopping after `until`.
  void start(sim::Simulator* simulator, sim::Time until);

  // --- inspection (tests, experiments) ---
  [[nodiscard]] geo::Point position(std::size_t ue) const {
    return {x_[ue], y_[ue]};
  }
  [[nodiscard]] const MeasBlock& block(radio::Rat rat) const noexcept {
    return rat == radio::Rat::kLte ? lte_ : nr_;
  }
  /// Serving cell index into Deployment::cells(rat), -1 when unattached.
  [[nodiscard]] int serving_cell(radio::Rat rat, std::size_t ue) const {
    return rat == radio::Rat::kLte ? serving_lte_[ue] : serving_nr_[ue];
  }
  [[nodiscard]] bool nr_attached(std::size_t ue) const {
    return serving_nr_[ue] >= 0;
  }
  [[nodiscard]] RrcState rrc_state(std::size_t ue) const {
    return static_cast<RrcState>(rrc_[ue]);
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] bool cell_live(const Cell& cell) const noexcept {
    return fault_ == nullptr || !fault_->cell_down(cell.pci);
  }
  void trigger_phase(sim::Time now);
  void apply_handoff(std::size_t ue, HandoffType type, int target,
                     sim::Time now);
  /// Best live LTE cell co-sited with `site_id` from this sweep's rows;
  /// falls back to the UE's current anchor.
  [[nodiscard]] int anchor_for(std::size_t ue, int site_id) const;
  void note_rrc(std::size_t ue);
  void tick(sim::Simulator* simulator, sim::Time until);

  const Deployment* dep_;
  CohortConfig config_;
  sim::Rng rng_;
  fault::Runtime* fault_;
  sim::Time start_time_ = 0;  // routes anchor here (set by start())

  // --- SoA per-UE state (all arrays share the UE index) ---
  std::vector<double> x_, y_;
  std::vector<std::int32_t> route_id_;  // -1 = stationary
  std::vector<double> speed_mps_;
  std::vector<std::int32_t> serving_lte_, serving_nr_;  // cell idx, -1 none
  std::vector<sim::Time> a3_since_;
  std::vector<sim::Time> nsa_add_since_, nsa_drop_since_;
  std::vector<sim::Time> ho_busy_until_;
  std::vector<std::uint8_t> rrc_;

  std::vector<geo::Route> routes_;

  MeasBlock lte_, nr_;
  // The key (position bits, fault offset) both blocks' rows of a UE were
  // last filled at; rows are always filled for both RATs together.
  std::vector<std::uint64_t> rows_x_, rows_y_;
  std::vector<double> rows_offset_db_;
  std::vector<std::uint8_t> rows_filled_;
  Deployment::RowScratch scratch_;

  Stats stats_;

  // Canonical {cohort=...}-labeled metric names, built once.
  std::string sweep_counter_;
  std::string rows_computed_counter_, rows_reused_counter_;
  std::string a3_counter_;
  std::string rsrp_digest_lte_, rsrp_digest_nr_;
  std::string sinr_digest_lte_, sinr_digest_nr_;
  std::string nr_attached_gauge_;
  std::string ho_counter_[4];
  std::string ho_latency_digest_[4];
};

}  // namespace fiveg::ran
