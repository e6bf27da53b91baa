// Shared experiment scaffolding: the campus scenario (map + deployment)
// and the standard UE <-> cloud testbed (cellular path + cross traffic),
// assembled the same way for every experiment.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/iperf.h"
#include "geo/campus.h"
#include "net/cross_traffic.h"
#include "net/epc.h"
#include "net/path.h"
#include "ran/deployment.h"
#include "ran/prb_scheduler.h"
#include "ran/ue_cohort.h"
#include "sim/parsim.h"
#include "sim/simulator.h"

namespace fiveg::core {

/// The measured campus: map + NSA deployment, deterministic per seed.
class Scenario {
 public:
  explicit Scenario(std::uint64_t seed);

  [[nodiscard]] const geo::CampusMap& campus() const noexcept {
    return campus_;
  }
  [[nodiscard]] const ran::Deployment& deployment() const noexcept {
    return deployment_;
  }

 private:
  geo::CampusMap campus_;
  ran::Deployment deployment_;
};

/// Share of city blocks left as parks/lots.
inline constexpr double kCityOpenFraction = 0.35;

/// Geometry of a city-scale scenario: the map extent and the hex grid
/// deployed over it. Defaults give a ~1.28 km square with a 19-site
/// (rings=2) NSA grid — the densified layout the paper's coverage
/// discussion extrapolates to.
struct CityConfig {
  double width_m = 1280.0;
  double height_m = 1280.0;
  ran::CityGridConfig grid;
};

/// A city-scale map + hex-grid NSA deployment, deterministic per seed.
/// Uses its own rng stream names, so city runs never perturb the paper
/// campus draws.
class CityScenario {
 public:
  explicit CityScenario(std::uint64_t seed, const CityConfig& config = {});

  [[nodiscard]] const geo::CampusMap& campus() const noexcept {
    return campus_;
  }
  [[nodiscard]] const ran::Deployment& deployment() const noexcept {
    return deployment_;
  }
  [[nodiscard]] const CityConfig& config() const noexcept { return config_; }

 private:
  CityConfig config_;
  geo::CampusMap campus_;
  ran::Deployment deployment_;
};

/// A city split into radio-isolated districts, one per sim::ParSim lane:
/// each district is an independent CityScenario (own hex grid, own
/// campus, own UE cohort) and districts couple only through the wireline
/// metro core. That physical structure is what licenses parallel
/// execution — the conservative lookahead below bounds how soon any
/// district can influence another.
struct PartitionedCityConfig {
  int districts = 4;
  CityConfig district;        // per-district geometry (identical layout,
                              // per-district seeds)
  double backhaul_km = 30.0;  // metro fibre between district cores
};

/// Conservative cross-district lookahead: districts are beyond radio
/// reach of each other, so the fastest cross-district influence channel
/// is the metro backhaul. One-way fibre propagation at ~5 us/km over
/// `backhaul_km` (clamped to >= sim::kMinParallelLookahead, the floor below
/// which ParSim falls back to the serial core) bounds the window width.
[[nodiscard]] sim::Time city_partition_lookahead(
    const PartitionedCityConfig& config);

/// The UE mix of a city cohort: `walk_frac` of the `n_ue` UEs walk at
/// 1.4 m/s along 6-waypoint routes, `drive_frac` drive at 11 m/s along
/// 4-waypoint routes, and the rest stand still.
struct CityPopulation {
  int n_ue = 100;
  double walk_frac = 0.10;
  double drive_frac = 0.05;
};

/// Adds `pop` to `cohort` in a fixed order (walkers, then drivers, then
/// the stationary rest), drawing every route and position from `place`.
void populate_city_cohort(ran::UeCohort& cohort, const geo::CampusMap& campus,
                          const CityPopulation& pop, sim::Rng& place);

/// One district of a partitioned city: its scenario and its cohort.
struct CityDistrict {
  std::unique_ptr<CityScenario> scenario;
  std::unique_ptr<ran::UeCohort> cohort;
};

/// Builds district k of `part` on lane k of `par`, inside par.with_lane(k)
/// so the cohort's metric handles and fault stream are lane k's. District
/// k draws its scenario, cohort and UE placement from the `district<k>`,
/// `district<k>.cohort` and `district<k>.ues` forks of `seed`, names its
/// cohort `<cohort_prefix>.d<k>`, pins it to lane k and starts its sweeps
/// until `until`. `par` must have `part.districts` lanes, and the
/// districts must outlive every later run of `par`.
[[nodiscard]] std::vector<CityDistrict> build_city_districts(
    sim::ParSim& par, std::uint64_t seed, const PartitionedCityConfig& part,
    const std::string& cohort_prefix, const CityPopulation& pop,
    sim::Time until);

/// Which endpoint sends the payload.
enum class Direction { kDownlink, kUplink };

/// Options for a testbed path.
struct TestbedOptions {
  radio::Rat rat = radio::Rat::kNr;
  ran::LoadRegime regime = ran::LoadRegime::kDay;
  Direction direction = Direction::kDownlink;
  double server_distance_km = 30.0;
  int wired_hops = 0;  // 0 = the default 6-hop metro path
  bool cross_traffic = true;
  // 0 = use the paper's UDP-baseline rate for the RAT/regime/direction.
  double ran_rate_bps = 0.0;
  // 0 = the legacy default (Table 3's 4G-era wireline buffer).
  std::uint64_t bottleneck_buffer_bytes = 0;
  // Queue discipline at the wireline bottleneck. nullopt = the campaign
  // default (drop-tail unless overridden via --qdisc).
  std::optional<net::QdiscConfig> bottleneck_qdisc;
  std::function<bool()> ran_blocked_fn;  // hand-off outages
};

/// Campaign-wide bottleneck qdisc default, applied by every Testbed whose
/// options leave bottleneck_qdisc unset. fiveg_runall sets it once per
/// campaign cell (--qdisc or a manifest's qdisc axis), before that cell's
/// runner spawns worker threads; read-only while the cell runs.
void set_campaign_bottleneck_qdisc(const net::QdiscConfig& qdisc);
[[nodiscard]] const net::QdiscConfig& campaign_bottleneck_qdisc() noexcept;

/// The paper's serving rate for a RAT/regime/direction (UDP baselines).
[[nodiscard]] double baseline_rate_bps(radio::Rat rat, ran::LoadRegime regime,
                                       Direction direction) noexcept;

/// One UE <-> cloud path with fan-out sinks and optional ambient cross
/// traffic at the wireline bottleneck. Endpoint A is the payload sender:
/// the cloud for downlink runs, the UE for uplink runs.
class Testbed {
 public:
  Testbed(sim::Simulator* simulator, const TestbedOptions& options,
          std::uint64_t seed);

  [[nodiscard]] net::PathNetwork& path() noexcept { return *path_; }
  [[nodiscard]] app::PathFanout& fanout() noexcept { return *fanout_; }
  /// The shared wireline bottleneck link in the payload direction.
  [[nodiscard]] net::Link& bottleneck() noexcept {
    return path_->forward_link(bottleneck_index_);
  }
  [[nodiscard]] double ran_rate_bps() const noexcept { return ran_rate_bps_; }
  [[nodiscard]] std::size_t hop_count() const noexcept {
    return path_->hop_count();
  }

  /// Starts the ambient cross traffic (idempotent; no-op if disabled).
  void start_cross_traffic(sim::Time until);

 private:
  std::unique_ptr<net::PathNetwork> path_;
  std::unique_ptr<app::PathFanout> fanout_;
  std::unique_ptr<net::CrossTraffic> cross_;
  std::size_t bottleneck_index_ = 0;
  double ran_rate_bps_ = 0.0;
};

}  // namespace fiveg::core
