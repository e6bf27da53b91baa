#include "energy/policies.h"

#include "ran/rrc.h"

namespace fiveg::energy {

std::string to_string(RadioModel m) {
  switch (m) {
    case RadioModel::kLteOnly:
      return "LTE";
    case RadioModel::kNrNsa:
      return "NR NSA";
    case RadioModel::kNrOracle:
      return "NR Oracle";
    case RadioModel::kDynamicSwitch:
      return "Dyn. switch";
    case RadioModel::kNrSa:
      return "NR SA";
  }
  return "?";
}

sim::Time promotion_delay(RadioModel m) noexcept {
  switch (m) {
    case RadioModel::kLteOnly:
    case RadioModel::kDynamicSwitch:  // camps on LTE first
      return ran::kLtePromotion;
    case RadioModel::kNrNsa:
      return ran::kNrPromotion;
    case RadioModel::kNrOracle:
      // The Oracle schedules sleep perfectly but still signals its way up
      // the NSA ladder — the paper's Oracle saves only 11-16% vs NSA,
      // which rules out free promotions.
      return ran::kNrPromotion;
    case RadioModel::kNrSa:
      // Direct NR RRC setup, no LTE detour: roughly the LTE promotion
      // cost. RRC_INACTIVE fast reconnects are handled by the replayer.
      return ran::kLtePromotion;
  }
  return 0;
}

radio::Rat initial_rat(RadioModel m) noexcept {
  switch (m) {
    case RadioModel::kLteOnly:
    case RadioModel::kDynamicSwitch:
      return radio::Rat::kLte;
    case RadioModel::kNrNsa:
    case RadioModel::kNrOracle:
    case RadioModel::kNrSa:
      return radio::Rat::kNr;
  }
  return radio::Rat::kLte;
}

}  // namespace fiveg::energy
