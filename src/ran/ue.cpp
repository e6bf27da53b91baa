#include "ran/ue.h"

#include "radio/mcs.h"

namespace fiveg::ran {

std::optional<HandoffType> nsa_step(bool nr_attached,
                                    sim::Time& add_dwell_since,
                                    sim::Time& drop_dwell_since, sim::Time at,
                                    double best_nr_rsrp_dbm) noexcept {
  if (!nr_attached) {
    drop_dwell_since = kNsaNotDwelling;
    const bool addable =
        best_nr_rsrp_dbm >= radio::kServiceRsrpFloorDbm + kNsaAddMarginDb;
    if (!addable) {
      add_dwell_since = kNsaNotDwelling;
      return std::nullopt;
    }
    if (add_dwell_since == kNsaNotDwelling) add_dwell_since = at;
    if (at - add_dwell_since >= kNsaTimeToTrigger) {
      add_dwell_since = kNsaNotDwelling;
      return HandoffType::k4G5G;
    }
    return std::nullopt;
  }

  add_dwell_since = kNsaNotDwelling;
  const bool lost = best_nr_rsrp_dbm < radio::kServiceRsrpFloorDbm;
  if (!lost) {
    drop_dwell_since = kNsaNotDwelling;
    return std::nullopt;
  }
  if (drop_dwell_since == kNsaNotDwelling) drop_dwell_since = at;
  if (at - drop_dwell_since >= kNsaTimeToTrigger) {
    drop_dwell_since = kNsaNotDwelling;
    return HandoffType::k5G4G;
  }
  return std::nullopt;
}

std::optional<HandoffType> NsaUe::update(sim::Time at,
                                         double best_nr_rsrp_dbm) {
  return nsa_step(nr_attached_, add_dwell_since_, drop_dwell_since_, at,
                  best_nr_rsrp_dbm);
}

void NsaUe::complete(HandoffType t) noexcept {
  if (t == HandoffType::k4G5G) nr_attached_ = true;
  if (t == HandoffType::k5G4G) nr_attached_ = false;
}

}  // namespace fiveg::ran
