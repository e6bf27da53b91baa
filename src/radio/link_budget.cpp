#include "radio/link_budget.h"

#include <cmath>

#include "radio/pathloss.h"

namespace fiveg::radio {
namespace {

// Shadowing offsets so the two bands draw distinct fields from one seed.
constexpr std::uint64_t kLteFieldSalt = 0x17e'000;
constexpr std::uint64_t kNrFieldSalt = 0x5f9'000;

}  // namespace

RadioEnvironment::RadioEnvironment(const geo::CampusMap* campus,
                                   std::uint64_t seed)
    : campus_(campus),
      shadow_lte_(seed ^ kLteFieldSalt),
      shadow_nr_(seed ^ kNrFieldSalt),
      fault_(fault::runtime()) {}

const ShadowingField& RadioEnvironment::field_for(
    const CarrierConfig& c) const noexcept {
  return c.rat == Rat::kLte ? shadow_lte_ : shadow_nr_;
}

MastLink RadioEnvironment::mast_link(const geo::Point& mast,
                                     const geo::Point& ue) const noexcept {
  const geo::Segment path{mast, ue};
  const double d = path_distance_m(path.length());
  return MastLink{campus_->has_los(path), geo::azimuth_deg(mast, ue), d,
                  std::log10(d)};
}

double RadioEnvironment::rsrp_dbm(const CarrierConfig& c, const TxSite& tx,
                                  const geo::Point& ue) const noexcept {
  // The independent scalar reference: one site, one band, every term from
  // scratch (the row kernel shares the geometry across sectors and bands).
  const geo::Segment path{tx.pos, ue};
  const double pl =
      campus_pathloss_db(path.length(), c.freq_ghz, campus_->has_los(path));
  // Outdoor blockage is statistically inside the NLoS fit; explicit
  // penetration applies only when the UE itself is indoors (O2I).
  double pen = campus_->o2i_loss_db(ue, c.freq_ghz);
  // Coverage-hole fault windows add a flat offset here so every cell and
  // both bands see the same hole.
  if (fault_ != nullptr) pen += fault_->coverage_offset_db();
  // The shadowing field is sampled at the UE end; using one end keeps the
  // field consistent when comparing co-sited cells from the same spot.
  const double shadow = field_for(c).at(ue);
  return c.tx_re_power_dbm +
         (tx.antenna.gain_toward(tx.pos, ue) - pl - pen - shadow);
}

}  // namespace fiveg::radio
