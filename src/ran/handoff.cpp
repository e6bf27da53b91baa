#include "ran/handoff.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "obs/obs.h"

namespace fiveg::ran {

namespace {

// Delay after hand-off completion at which "quality after" is sampled.
constexpr sim::Time kQualityAfterDelay = sim::from_millis(500);

}  // namespace

ServingAndBestOther serving_and_best_other(
    const std::vector<CellMeasurement>& meas, const Cell* serving) {
  ServingAndBestOther out;
  for (const CellMeasurement& m : meas) {
    if (m.cell == serving) {
      out.serving = &m;
    } else if (out.best_other == nullptr ||
               m.rsrq_db > out.best_other->rsrq_db) {
      out.best_other = &m;
    }
  }
  return out;
}

HandoffEngine::HandoffEngine(sim::Simulator* simulator,
                             const Deployment* deployment,
                             MobilityConfig config, sim::Rng rng,
                             RsrqTrace* trace)
    : sim_(simulator),
      dep_(deployment),
      config_(config),
      rng_(rng),
      trace_(trace),
      a3_nr_(config.a3),
      a3_lte_(config.a3) {
  fault_ = fault::runtime();
}

void HandoffEngine::start(geo::Route route) {
  route_ = std::move(route);
  route_start_ = sim_->now();

  // Initial attachment: camp on the best LTE cell; the NSA controller will
  // add the NR leg on its own dwell timer.
  const geo::Point pos = position_at(sim_->now());
  const CellMeasurement best_lte = dep_->best(radio::Rat::kLte, pos);
  lte_ = best_lte.cell;
  nr_ = nullptr;
  // Under fault injection the best cell may already be in outage; camp on
  // the strongest live one instead.
  if (fault_ != nullptr && lte_ != nullptr && fault_->cell_down(lte_->pci)) {
    lte_ = nullptr;
    double best_rsrp = -1e9;
    for (const CellMeasurement& m : dep_->measure(radio::Rat::kLte, pos)) {
      if (fault_->cell_down(m.cell->pci)) continue;
      if (lte_ == nullptr || m.rsrp_dbm > best_rsrp) {
        lte_ = m.cell;
        best_rsrp = m.rsrp_dbm;
      }
    }
  }
  note_rrc_state();

  sim_->schedule_in(0, "ran.mobility_step", [this] { step(); });
}

geo::Point HandoffEngine::position_at(sim::Time at) const {
  assert(route_.has_value());
  const double walked =
      config_.speed_mps * sim::to_seconds(std::max<sim::Time>(at - route_start_, 0));
  return route_->position_at(walked);
}

bool HandoffEngine::data_interrupted(sim::Time at) const noexcept {
  // Interruptions are appended in time order and never overlap (only one
  // hand-off runs at a time), so binary-search the latest one starting at
  // or before `at`.
  const auto it = std::upper_bound(
      interruptions_.begin(), interruptions_.end(), at,
      [](sim::Time t, const Interruption& i) { return t < i.begin; });
  if (it == interruptions_.begin()) {
    return serving_gap_at(at);
  }
  return at < std::prev(it)->end || serving_gap_at(at);
}

bool HandoffEngine::serving_gap_at(sim::Time at) const noexcept {
  for (const ServingGap& g : gaps_) {
    if (at >= g.begin && (g.end < 0 || at < g.end)) return true;
  }
  return false;
}

const Cell* HandoffEngine::anchor_for(const Cell& nr_cell,
                                      const geo::Point& ue) const {
  const Cell* best = nullptr;
  double best_rsrp = -1e9;
  for (const Cell& c : dep_->cells(radio::Rat::kLte)) {
    if (c.site_id != nr_cell.site_id) continue;
    // An anchor in (injected) outage cannot host the leg; keep the current
    // live anchor rather than re-attaching to a dead cell.
    if (fault_ != nullptr && fault_->cell_down(c.pci)) continue;
    const double rsrp =
        dep_->env().rsrp_dbm(dep_->carrier(radio::Rat::kLte), c.site, ue);
    if (best == nullptr || rsrp > best_rsrp) {
      best = &c;
      best_rsrp = rsrp;
    }
  }
  return best != nullptr ? best : lte_;
}

void HandoffEngine::step() {
  const sim::Time now = sim_->now();
  const double walked = config_.speed_mps * sim::to_seconds(now - route_start_);
  if (walked > route_->length_m()) return;  // route done: stop sampling

  const geo::Point pos = route_->position_at(walked);
  dep_->measure_into(radio::Rat::kLte, pos, lte_meas_);
  dep_->measure_into(radio::Rat::kNr, pos, nr_meas_);
  const auto& lte_meas = lte_meas_;
  const auto& nr_meas = nr_meas_;
  if (trace_ != nullptr) {
    const ServingAndBestOther nr = serving_and_best_other(nr_meas, nr_);
    if (nr.serving != nullptr) {
      trace_->nr_serving_db.add(now, nr.serving->rsrq_db);
    }
    if (nr.best_other != nullptr) {
      trace_->nr_best_other_db.add(now, nr.best_other->rsrq_db);
    }
  }

  if (fault_ != nullptr && !ho_in_progress_ && !reestablishing_) {
    handle_outages();
  }
  if (reestablishing_) {
    // No serving cell: nothing to hand off until re-establishment lands.
    sim_->schedule_in(kMobilitySamplePeriod, "ran.mobility_step",
                      [this] { step(); });
    return;
  }

  if (!ho_in_progress_) {
    // --- Vertical transitions (NSA leg add/drop) ---
    const CellMeasurement* best_nr = nullptr;
    for (const CellMeasurement& m : nr_meas) {
      if (best_nr == nullptr || m.rsrp_dbm > best_nr->rsrp_dbm) best_nr = &m;
    }
    const double best_nr_rsrp = best_nr != nullptr ? best_nr->rsrp_dbm : -140.0;
    if (const auto vertical = nsa_.update(now, best_nr_rsrp)) {
      if (*vertical == HandoffType::k4G5G) {
        double before = -25.0;
        for (const CellMeasurement& m : lte_meas) {
          if (m.cell == lte_) before = m.rsrq_db;
        }
        begin_handoff(HandoffType::k4G5G, lte_, best_nr->cell, before);
      } else {
        double before = -25.0;
        for (const CellMeasurement& m : nr_meas) {
          if (m.cell == nr_) before = m.rsrq_db;
        }
        begin_handoff(HandoffType::k5G4G, nr_, lte_, before);
      }
    } else if (nr_ != nullptr) {
      // --- Horizontal 5G-5G via A3 on RSRQ ---
      const auto [serving, neighbor] = serving_and_best_other(nr_meas, nr_);
      if (serving != nullptr && neighbor != nullptr &&
          a3_nr_.update(now, serving->rsrq_db, neighbor->rsrq_db)) {
        if (auto* t = obs::tracer()) {
          t->instant(now, "ran.a3_trigger", "ran",
                     {{"rat", "nr"},
                      {"serving_pci", std::to_string(serving->cell->pci)},
                      {"neighbor_pci", std::to_string(neighbor->cell->pci)}});
        }
        if (auto* m = obs::metrics()) m->counter("ran.a3_triggers").add();
        begin_handoff(HandoffType::k5G5G, nr_, neighbor->cell,
                      serving->rsrq_db);
      }
    } else {
      // --- Horizontal 4G-4G via A3 on RSRQ ---
      const auto [serving, neighbor] = serving_and_best_other(lte_meas, lte_);
      if (serving != nullptr && neighbor != nullptr &&
          a3_lte_.update(now, serving->rsrq_db, neighbor->rsrq_db)) {
        if (auto* t = obs::tracer()) {
          t->instant(now, "ran.a3_trigger", "ran",
                     {{"rat", "lte"},
                      {"serving_pci", std::to_string(serving->cell->pci)},
                      {"neighbor_pci", std::to_string(neighbor->cell->pci)}});
        }
        if (auto* m = obs::metrics()) m->counter("ran.a3_triggers").add();
        begin_handoff(HandoffType::k4G4G, lte_, neighbor->cell,
                      serving->rsrq_db);
      }
    }
  }

  sim_->schedule_in(kMobilitySamplePeriod, "ran.mobility_step",
                    [this] { step(); });
}

void HandoffEngine::begin_handoff(HandoffType type, const Cell* from,
                                  const Cell* to, double quality_before_db) {
  ho_in_progress_ = true;
  a3_nr_.reset();
  a3_lte_.reset();

  const sim::Time latency = sample_handoff_latency(type, rng_);
  HandoffRecord rec;
  rec.trigger_at = sim_->now();
  rec.type = type;
  rec.from_pci = from != nullptr ? from->pci : -1;
  rec.to_pci = to != nullptr ? to->pci : -1;
  rec.latency = latency;
  rec.quality_before_db = quality_before_db;
  records_.push_back(rec);
  interruptions_.push_back({sim_->now(), sim_->now() + latency, type});

  // A hand-off leg is a genuine simulated-time span: begin at the trigger,
  // end at signalling completion. Legs never overlap (one hand-off at a
  // time), so Chrome's per-track B/E nesting holds.
  if (auto* t = obs::tracer()) {
    t->begin(sim_->now(), "ran.handoff", "ran",
             {{"type", to_string(type)},
              {"from_pci", std::to_string(rec.from_pci)},
              {"to_pci", std::to_string(rec.to_pci)}});
  }
  if (auto* m = obs::metrics()) {
    m->counter("ran.handoff.begun").add();
    m->counter("ran.handoff.type." + to_string(type)).add();
    // Per-leg latency digest, dimensioned by hand-off type: the report layer
    // reads the percentile ladder per leg (4G-4G vs 5G-5G vs vertical).
    m->digest(obs::labeled("ran.handoff.latency_ms",
                           {{"type", to_string(type)}}))
        .observe(sim::to_millis(latency));
  }

  const std::size_t idx = records_.size() - 1;
  sim_->schedule_in(latency, "ran.handoff_complete",
                    [this, idx, type, to] { complete_handoff(idx, type, to); });
}

void HandoffEngine::complete_handoff(std::size_t record_idx, HandoffType type,
                                     const Cell* target) {
  ho_in_progress_ = false;
  // Mid-hand-off sector outage: the target died while signalling was in
  // flight, so the hand-off aborts and the UE stays where it was (the A3 /
  // NSA machinery will re-trigger from scratch). A 5G→4G leg drop always
  // completes — it releases the NR leg rather than acquiring anything; a
  // dead LTE target is picked up as an anchor RLF on the next sample.
  if (fault_ != nullptr && target != nullptr &&
      type != HandoffType::k5G4G && fault_->cell_down(target->pci)) {
    records_[record_idx].aborted = true;
    if (auto* t = obs::tracer()) t->end(sim_->now(), "ran.handoff", "ran");
    if (auto* m = obs::metrics()) {
      m->counter("ran.handoff.aborted").add();
      m->counter("fault.handoff_aborts", {{"type", to_string(type)}}).add();
    }
    return;
  }
  const geo::Point pos = position_at(sim_->now());
  switch (type) {
    case HandoffType::k4G4G:
      lte_ = target;
      break;
    case HandoffType::k5G5G:
      nr_ = target;
      lte_ = anchor_for(*target, pos);
      break;
    case HandoffType::k4G5G:
      nr_ = target;
      lte_ = anchor_for(*target, pos);
      nsa_.complete(type);
      break;
    case HandoffType::k5G4G:
      nr_ = nullptr;
      nsa_.complete(type);
      break;
  }
  note_rrc_state();
  if (auto* t = obs::tracer()) t->end(sim_->now(), "ran.handoff", "ran");
  if (auto* m = obs::metrics()) m->counter("ran.handoff.completed").add();
  sim_->schedule_in(kQualityAfterDelay, "ran.ho_quality_sample",
                    [this, record_idx] { sample_quality_after(record_idx); });
}

RrcState HandoffEngine::current_rrc_state() const noexcept {
  if (lte_ == nullptr) return RrcState::kIdle;
  return nr_ != nullptr ? RrcState::kConnectedNr : RrcState::kConnectedLte;
}

void HandoffEngine::note_rrc_state() {
  const RrcState state = current_rrc_state();
  if (!rrc_log_.empty() && rrc_log_.back().second == state) return;
  rrc_log_.emplace_back(sim_->now(), state);
}

void HandoffEngine::handle_outages() {
  // Secondary-leg death is silent from the anchor's point of view: the NR
  // leg just drops (no signalling) and the NSA controller starts over.
  if (nr_ != nullptr && fault_->cell_down(nr_->pci)) {
    nr_ = nullptr;
    nsa_.radio_link_failure();
    a3_nr_.reset();
    note_rrc_state();
    if (auto* m = obs::metrics()) {
      m->counter("fault.rlf", {{"leg", "nr"}}).add();
    }
  }
  // Anchor death takes the whole connection down: RRC re-establishment.
  if (lte_ != nullptr && fault_->cell_down(lte_->pci)) {
    begin_reestablishment();
  }
}

void HandoffEngine::begin_reestablishment() {
  const int pci = lte_->pci;
  reestablishing_ = true;
  lte_ = nullptr;
  nr_ = nullptr;
  nsa_.radio_link_failure();
  a3_nr_.reset();
  a3_lte_.reset();
  gaps_.push_back({sim_->now(), -1});
  note_rrc_state();
  if (auto* t = obs::tracer()) {
    t->instant(sim_->now(), "ran.rlf", "ran",
               {{"pci", std::to_string(pci)}});
  }
  if (auto* m = obs::metrics()) {
    m->counter("fault.rlf", {{"leg", "anchor"}}).add();
    m->counter("ran.rrc.reestablishments").add();
  }
  // RLF declaration plus the re-establishment exchange; the serving gap is
  // bounded by kReestablishBound whenever any live cell exists.
  sim_->schedule_in(kReestablishBound, "ran.rrc_reestablish",
                    [this] { try_reestablish(); });
}

void HandoffEngine::try_reestablish() {
  const geo::Point pos = position_at(sim_->now());
  const Cell* best = nullptr;
  double best_rsrp = -1e9;
  for (const CellMeasurement& m : dep_->measure(radio::Rat::kLte, pos)) {
    if (fault_->cell_down(m.cell->pci)) continue;
    if (best == nullptr || m.rsrp_dbm > best_rsrp) {
      best = m.cell;
      best_rsrp = m.rsrp_dbm;
    }
  }
  if (best == nullptr) {
    // Every candidate is in outage; keep retrying (bounded-gap recovery
    // resumes as soon as a restore toggle fires).
    sim_->schedule_in(kReestablishProcedure, "ran.rrc_reestablish",
                      [this] { try_reestablish(); });
    return;
  }
  lte_ = best;
  reestablishing_ = false;
  gaps_.back().end = sim_->now();
  note_rrc_state();
  if (auto* m = obs::metrics()) {
    m->counter("ran.rrc.reestablished").add();
  }
}

void HandoffEngine::sample_quality_after(std::size_t record_idx) {
  HandoffRecord& rec = records_[record_idx];
  const double walked =
      config_.speed_mps * sim::to_seconds(sim_->now() - route_start_);
  if (walked > route_->length_m()) return;  // run over; leave unrecorded
  const geo::Point pos = route_->position_at(walked);
  // Quality of whatever now serves the data plane: NR if attached else LTE.
  const radio::Rat rat = nr_ != nullptr ? radio::Rat::kNr : radio::Rat::kLte;
  const Cell* serving = nr_ != nullptr ? nr_ : lte_;
  for (const CellMeasurement& m : dep_->measure(rat, pos)) {
    if (m.cell == serving) {
      rec.quality_after_db = m.rsrq_db;
      rec.after_recorded = true;
      return;
    }
  }
}

}  // namespace fiveg::ran
