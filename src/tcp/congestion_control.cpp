#include "tcp/congestion_control.h"

#include "tcp/cc_algorithms.h"

namespace fiveg::tcp {

std::string to_string(CcAlgo a) {
  switch (a) {
    case CcAlgo::kReno:
      return "Reno";
    case CcAlgo::kCubic:
      return "Cubic";
    case CcAlgo::kVegas:
      return "Vegas";
    case CcAlgo::kVeno:
      return "Veno";
    case CcAlgo::kBbr:
      return "BBR";
  }
  return "?";
}

std::unique_ptr<CongestionControl> make_congestion_control(
    CcAlgo algo, CcSeed seed) {
  switch (algo) {
    case CcAlgo::kReno:
      return std::make_unique<RenoCc>();
    case CcAlgo::kCubic:
      return std::make_unique<CubicCc>();
    case CcAlgo::kVegas:
      return std::make_unique<VegasCc>();
    case CcAlgo::kVeno:
      return std::make_unique<VenoCc>();
    case CcAlgo::kBbr:
      return std::make_unique<BbrCc>(seed);
  }
  return nullptr;
}

}  // namespace fiveg::tcp
