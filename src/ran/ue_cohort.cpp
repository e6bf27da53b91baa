#include "ran/ue_cohort.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "ran/cell.h"

namespace fiveg::ran {

UeCohort::UeCohort(const Deployment* deployment, CohortConfig config,
                   sim::Rng rng)
    : dep_(deployment),
      config_(std::move(config)),
      rng_(rng),
      fault_(fault::runtime()) {
  lte_.n_cells = dep_->cells(radio::Rat::kLte).size();
  nr_.n_cells = dep_->cells(radio::Rat::kNr).size();

  const std::string& name = config_.name;
  sweep_counter_ = obs::labeled("ran.cohort.sweeps", {{"cohort", name}});
  rows_computed_counter_ =
      obs::labeled("ran.cohort.rows_computed", {{"cohort", name}});
  rows_reused_counter_ =
      obs::labeled("ran.cohort.rows_reused", {{"cohort", name}});
  a3_counter_ = obs::labeled("ran.cohort.a3_triggers", {{"cohort", name}});
  rsrp_digest_lte_ = obs::labeled("ran.cohort.rsrp_dbm",
                                  {{"cohort", name}, {"rat", "lte"}});
  rsrp_digest_nr_ =
      obs::labeled("ran.cohort.rsrp_dbm", {{"cohort", name}, {"rat", "nr"}});
  sinr_digest_lte_ = obs::labeled("ran.cohort.sinr_db",
                                  {{"cohort", name}, {"rat", "lte"}});
  sinr_digest_nr_ =
      obs::labeled("ran.cohort.sinr_db", {{"cohort", name}, {"rat", "nr"}});
  nr_attached_gauge_ =
      obs::labeled("ran.cohort.nr_attached_frac", {{"cohort", name}});
  for (const HandoffType type :
       {HandoffType::k4G4G, HandoffType::k5G5G, HandoffType::k4G5G,
        HandoffType::k5G4G}) {
    const auto i = static_cast<std::size_t>(type);
    ho_counter_[i] = obs::labeled(
        "ran.cohort.handoffs", {{"cohort", name}, {"type", to_string(type)}});
    ho_latency_digest_[i] =
        obs::labeled("ran.cohort.handoff_latency_ms",
                     {{"cohort", name}, {"type", to_string(type)}});
  }
}

int UeCohort::add_stationary(geo::Point pos) {
  const int ue = static_cast<int>(x_.size());
  x_.push_back(pos.x);
  y_.push_back(pos.y);
  route_id_.push_back(-1);
  speed_mps_.push_back(0.0);
  serving_lte_.push_back(-1);
  serving_nr_.push_back(-1);
  a3_since_.push_back(kA3NotEntering);
  nsa_add_since_.push_back(kNsaNotDwelling);
  nsa_drop_since_.push_back(kNsaNotDwelling);
  ho_busy_until_.push_back(0);
  rrc_.push_back(static_cast<std::uint8_t>(RrcState::kIdle));
  for (MeasBlock* b : {&lte_, &nr_}) {
    b->rsrp_dbm.resize(x_.size() * b->n_cells);
    b->sinr_db.resize(x_.size() * b->n_cells);
    b->rsrq_db.resize(x_.size() * b->n_cells);
    b->key_x.resize(x_.size());
    b->key_y.resize(x_.size());
    b->key_offset_db.resize(x_.size());
    b->valid.resize(x_.size(), 0);
  }
  rows_x_.push_back(0);
  rows_y_.push_back(0);
  rows_offset_db_.push_back(0.0);
  rows_filled_.push_back(0);
  return ue;
}

int UeCohort::add_route(geo::Route route, double speed_mps) {
  const geo::Point start = route.position_at(0.0);
  const int ue = add_stationary(start);
  routes_.push_back(std::move(route));
  route_id_[static_cast<std::size_t>(ue)] =
      static_cast<std::int32_t>(routes_.size() - 1);
  speed_mps_[static_cast<std::size_t>(ue)] = speed_mps;
  return ue;
}

void UeCohort::advance_positions(sim::Time at) {
  const double elapsed_s =
      sim::to_seconds(std::max<sim::Time>(at - start_time_, 0));
  for (std::size_t u = 0; u < x_.size(); ++u) {
    if (route_id_[u] < 0) continue;
    const geo::Route& route = routes_[static_cast<std::size_t>(route_id_[u])];
    const geo::Point p = route.position_at(speed_mps_[u] * elapsed_s);
    x_[u] = p.x;
    y_[u] = p.y;
  }
}

const UeCohort::MeasBlock& UeCohort::measure_batch(radio::Rat rat) {
  MeasBlock& block = rat == radio::Rat::kLte ? lte_ : nr_;
  const double offset =
      fault_ != nullptr ? fault_->coverage_offset_db() : 0.0;
  for (std::size_t u = 0; u < x_.size(); ++u) {
    const auto xb = std::bit_cast<std::uint64_t>(x_[u]);
    const auto yb = std::bit_cast<std::uint64_t>(y_[u]);
    // Accounting: this RAT's request against its own last request.
    if (block.valid[u] != 0 && block.key_x[u] == xb && block.key_y[u] == yb &&
        block.key_offset_db[u] == offset) {
      ++stats_.rows_reused;
    } else {
      block.key_x[u] = xb;
      block.key_y[u] = yb;
      block.key_offset_db[u] = offset;
      block.valid[u] = 1;
      ++stats_.rows_computed;
    }
    // Contents: both rows were last filled at one key; refill both when
    // the UE has left it.
    if (rows_filled_[u] != 0 && rows_x_[u] == xb && rows_y_[u] == yb &&
        rows_offset_db_[u] == offset) {
      continue;
    }
    dep_->measure_rows({x_[u], y_[u]}, scratch_, lte_.row(u), nr_.row(u));
    rows_x_[u] = xb;
    rows_y_[u] = yb;
    rows_offset_db_[u] = offset;
    rows_filled_[u] = 1;
  }
  return block;
}

int UeCohort::anchor_for(std::size_t ue, int site_id) const {
  const std::vector<Cell>& cells = dep_->cells(radio::Rat::kLte);
  const double* rsrp = lte_.rsrp_dbm.data() + ue * lte_.n_cells;
  int best = -1;
  double best_rsrp = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].site_id != site_id || !cell_live(cells[i])) continue;
    if (best < 0 || rsrp[i] > best_rsrp) {
      best = static_cast<int>(i);
      best_rsrp = rsrp[i];
    }
  }
  return best >= 0 ? best : serving_lte_[ue];
}

void UeCohort::note_rrc(std::size_t ue) {
  RrcState state = RrcState::kIdle;
  if (serving_lte_[ue] >= 0) {
    state = serving_nr_[ue] >= 0 ? RrcState::kConnectedNr
                                 : RrcState::kConnectedLte;
  }
  rrc_[ue] = static_cast<std::uint8_t>(state);
}

void UeCohort::apply_handoff(std::size_t ue, HandoffType type, int target,
                             sim::Time now) {
  // Cohort semantics: the serving change lands now; the UE's trigger
  // machinery blanks for the sampled signalling latency (the data-plane
  // interruption the per-UE engine models with a completion event).
  const sim::Time latency = sample_handoff_latency(type, rng_);
  ho_busy_until_[ue] = now + latency;
  a3_since_[ue] = kA3NotEntering;
  switch (type) {
    case HandoffType::k4G4G:
      serving_lte_[ue] = target;
      break;
    case HandoffType::k5G5G:
    case HandoffType::k4G5G:
      serving_nr_[ue] = target;
      serving_lte_[ue] = anchor_for(
          ue, dep_->cells(radio::Rat::kNr)[static_cast<std::size_t>(target)]
                  .site_id);
      break;
    case HandoffType::k5G4G:
      serving_nr_[ue] = -1;
      break;
  }
  note_rrc(ue);
  ++stats_.handoffs;
  if (type != HandoffType::k4G4G && type != HandoffType::k5G5G) {
    ++stats_.vertical_handoffs;
  }
  if (auto* reg = obs::metrics()) {
    const auto i = static_cast<std::size_t>(type);
    reg->counter(ho_counter_[i]).add();
    reg->digest(ho_latency_digest_[i]).observe(sim::to_millis(latency));
  }
}

void UeCohort::trigger_phase(sim::Time now) {
  const std::vector<Cell>& lte_cells = dep_->cells(radio::Rat::kLte);
  const std::vector<Cell>& nr_cells = dep_->cells(radio::Rat::kNr);
  const std::size_t nl = lte_.n_cells, nn = nr_.n_cells;
  for (std::size_t u = 0; u < x_.size(); ++u) {
    if (now < ho_busy_until_[u]) continue;
    const double* lte_rsrp = lte_.rsrp_dbm.data() + u * nl;
    const double* lte_rsrq = lte_.rsrq_db.data() + u * nl;
    const double* nr_rsrp = nr_.rsrp_dbm.data() + u * nn;
    const double* nr_rsrq = nr_.rsrq_db.data() + u * nn;

    // Initial attachment: camp on the best (live) LTE cell.
    if (serving_lte_[u] < 0) {
      int best = -1;
      for (std::size_t i = 0; i < nl; ++i) {
        if (!cell_live(lte_cells[i])) continue;
        if (best < 0 || lte_rsrp[i] > lte_rsrp[best]) {
          best = static_cast<int>(i);
        }
      }
      if (best < 0) continue;  // every LTE cell in outage: stay idle
      serving_lte_[u] = best;
      note_rrc(u);
    }

    // Vertical first (NSA leg add/drop), exactly as the per-UE engine.
    int best_nr = -1;
    for (std::size_t i = 0; i < nn; ++i) {
      if (!cell_live(nr_cells[i])) continue;
      if (best_nr < 0 || nr_rsrp[i] > nr_rsrp[best_nr]) {
        best_nr = static_cast<int>(i);
      }
    }
    const double best_nr_rsrp = best_nr >= 0 ? nr_rsrp[best_nr] : -140.0;
    const bool attached = serving_nr_[u] >= 0;
    if (const auto vertical =
            nsa_step(attached, nsa_add_since_[u], nsa_drop_since_[u], now,
                     best_nr_rsrp)) {
      apply_handoff(u, *vertical,
                    *vertical == HandoffType::k4G5G ? best_nr
                                                    : serving_lte_[u],
                    now);
      continue;
    }

    // Horizontal A3 on RSRQ under the ISP's A3Config: 5G-5G while the NR
    // leg is up, else 4G-4G.
    const double* rsrq = attached ? nr_rsrq : lte_rsrq;
    const std::size_t n = attached ? nn : nl;
    const std::vector<Cell>& cells = attached ? nr_cells : lte_cells;
    const int serving = attached ? serving_nr_[u] : serving_lte_[u];
    int neighbor = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (static_cast<int>(i) == serving || !cell_live(cells[i])) continue;
      if (neighbor < 0 || rsrq[i] > rsrq[neighbor]) {
        neighbor = static_cast<int>(i);
      }
    }
    if (neighbor >= 0 &&
        a3_step(A3Config{}, a3_since_[u], now, rsrq[serving],
                rsrq[neighbor])) {
      ++stats_.a3_triggers;
      if (auto* reg = obs::metrics()) reg->counter(a3_counter_).add();
      apply_handoff(u, attached ? HandoffType::k5G5G : HandoffType::k4G4G,
                    neighbor, now);
    }
  }
}

void UeCohort::sweep(sim::Time now) {
  const std::uint64_t rows_before_computed = stats_.rows_computed;
  const std::uint64_t rows_before_reused = stats_.rows_reused;
  advance_positions(now);
  measure_batch(radio::Rat::kLte);
  measure_batch(radio::Rat::kNr);
  trigger_phase(now);
  ++stats_.sweeps;

  if (auto* reg = obs::metrics()) {
    reg->counter(sweep_counter_).add();
    reg->counter(rows_computed_counter_)
        .add(stats_.rows_computed - rows_before_computed);
    reg->counter(rows_reused_counter_)
        .add(stats_.rows_reused - rows_before_reused);
    // Serving-cell KPI aggregation: per-cohort digests, never per-UE
    // series (10k UEs must not mint 10k registry entries).
    auto& rsrp_lte = reg->digest(rsrp_digest_lte_);
    auto& sinr_lte = reg->digest(sinr_digest_lte_);
    auto& rsrp_nr = reg->digest(rsrp_digest_nr_);
    auto& sinr_nr = reg->digest(sinr_digest_nr_);
    std::size_t attached = 0;
    for (std::size_t u = 0; u < x_.size(); ++u) {
      if (serving_lte_[u] >= 0) {
        const auto i = static_cast<std::size_t>(serving_lte_[u]);
        rsrp_lte.observe(lte_.rsrp_dbm[u * lte_.n_cells + i]);
        sinr_lte.observe(lte_.sinr_db[u * lte_.n_cells + i]);
      }
      if (serving_nr_[u] >= 0) {
        const auto i = static_cast<std::size_t>(serving_nr_[u]);
        rsrp_nr.observe(nr_.rsrp_dbm[u * nr_.n_cells + i]);
        sinr_nr.observe(nr_.sinr_db[u * nr_.n_cells + i]);
        ++attached;
      }
    }
    if (!x_.empty()) {
      reg->gauge(nr_attached_gauge_)
          .set(static_cast<double>(attached) /
               static_cast<double>(x_.size()));
    }
  }
}

void UeCohort::tick(sim::Simulator* simulator, sim::Time until) {
  // Domain-tagged cohorts refuse to sweep off their declared partition:
  // running here with foreign lane state installed would bump another
  // lane's registry and draw from another lane's fault runtime.
  if (config_.domain != sim::kNoLane &&
      sim::current_lane() != config_.domain) {
    std::string msg = "ran: cohort '";
    msg += config_.name;
    msg += "' pinned to lane ";
    msg += std::to_string(config_.domain);
    msg += " swept on lane ";
    msg += std::to_string(sim::current_lane());
    throw std::logic_error(msg);
  }
  const sim::Time now = simulator->now();
  if (now > until) return;
  sweep(now);
  simulator->schedule_in(config_.sample_period, "ran.cohort_sweep",
                         [this, simulator, until] { tick(simulator, until); });
}

void UeCohort::start(sim::Simulator* simulator, sim::Time until) {
  start_time_ = simulator->now();
  simulator->schedule_in(0, "ran.cohort_sweep",
                         [this, simulator, until] { tick(simulator, until); });
}

}  // namespace fiveg::ran
