// Link budget: combines carrier, antenna, geometry, path loss, penetration
// and shadowing into the KPIs the paper measures — RSRP, SINR, RSRQ and
// achievable bit-rate — for any transmitter/UE position pair.
//
// The batched `rsrp_dbm_all` computes the per-UE terms (O2I penetration,
// shadowing) once per call and shares the site-geometry terms (azimuth and
// path loss) between co-sited sectors. Sums are evaluated in the original
// expression order, so results are bit-identical to the one-site-at-a-time
// path. The environment holds no mutable state: const queries may be shared
// across threads.
#pragma once

#include <cstdint>

#include "fault/fault.h"
#include "geo/campus.h"
#include "radio/antenna.h"
#include "radio/carrier.h"
#include "radio/shadowing.h"

namespace fiveg::radio {

/// One radiating sector: a position plus its antenna.
struct TxSite {
  geo::Point pos;
  SectorAntenna antenna;
};

/// Radio propagation environment over a campus. Holds per-band shadowing
/// fields (shadowing decorrelates across the 1.8 / 3.5 GHz bands).
class RadioEnvironment {
 public:
  /// `campus` must outlive the environment.
  RadioEnvironment(const geo::CampusMap* campus, std::uint64_t seed);

  /// Reference-signal received power at the UE, dBm.
  [[nodiscard]] double rsrp_dbm(const CarrierConfig& c, const TxSite& tx,
                                const geo::Point& ue) const noexcept;

  /// Batched RSRP toward every site in [first, last): `proj` maps each
  /// element to a `const TxSite&`. Writes one dBm value per site to `out`,
  /// each bit-identical to the corresponding rsrp_dbm() call. Per-UE
  /// penetration and shadowing are evaluated once, and consecutive sites
  /// at one position (co-sited sectors) share one LoS + path-loss lookup.
  template <class Iter, class Proj>
  void rsrp_dbm_all(const CarrierConfig& c, Iter first, Iter last, Proj proj,
                    const geo::Point& ue, double* out) const {
    double pen = campus_->o2i_loss_db(ue, c.freq_ghz);
    // Coverage-hole windows add a flat shadowing offset on top of the O2I
    // term; inert (and bit-identical) when no fault runtime is installed.
    if (fault_ != nullptr) pen += fault_->coverage_offset_db();
    const double shadow = field_for(c).at(ue);
    const geo::Point* prev = nullptr;
    LinkTerms lt{};
    for (Iter it = first; it != last; ++it) {
      const TxSite& tx = proj(*it);
      if (prev == nullptr || !(tx.pos == *prev)) {
        lt = link_terms(tx.pos, ue, c.freq_ghz);
        prev = &tx.pos;
      }
      // Same association as rsrp_dbm(): tx power + (((gain - pl) - pen) -
      // shadow), so each element is bit-identical to the scalar call.
      *out++ = c.tx_re_power_dbm +
               (tx.antenna.gain_dbi(lt.az) - lt.pl - pen - shadow);
    }
  }

  [[nodiscard]] const geo::CampusMap& campus() const noexcept {
    return *campus_;
  }

 private:
  [[nodiscard]] const ShadowingField& field_for(
      const CarrierConfig& c) const noexcept;

  // The site-geometry half of a link budget: azimuth toward the UE and the
  // LoS/NLoS path loss. Both depend only on (site position, UE, frequency);
  // the antenna pattern is applied per sector on top.
  struct LinkTerms {
    double az = 0.0;
    double pl = 0.0;
  };
  [[nodiscard]] LinkTerms link_terms(const geo::Point& site,
                                     const geo::Point& ue,
                                     double freq_ghz) const noexcept;

  const geo::CampusMap* campus_;
  ShadowingField shadow_lte_;
  ShadowingField shadow_nr_;
  // Captured at construction; null when fault injection is off.
  fault::Runtime* fault_;
};

}  // namespace fiveg::radio
