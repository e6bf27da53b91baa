// Link budget: combines carrier, antenna, geometry, path loss, penetration
// and shadowing into the KPIs the paper measures — RSRP, SINR, RSRQ and
// achievable bit-rate — for any transmitter/UE position pair.
//
// A row of RSRP values is computed in two halves. The band-independent
// half is one MastLink per mast position: the LoS walk, the azimuth toward
// the UE, the clamped distance and its logarithm. Every sector and every
// band on that mast shares it, which is how one pass serves the LTE and NR
// rows of a UE. The per-band half (`rsrp_row`) adds the band's log10 f,
// O2I penetration and shadowing, once per row, and each sector's antenna
// gain. Every element keeps the expression association of the scalar
// `rsrp_dbm()`, so both paths return the same bits. The environment holds
// no mutable state: const queries may be shared across threads.
#pragma once

#include <cmath>
#include <cstdint>

#include "fault/fault.h"
#include "geo/campus.h"
#include "radio/antenna.h"
#include "radio/carrier.h"
#include "radio/pathloss.h"
#include "radio/shadowing.h"

namespace fiveg::radio {

/// One radiating sector: a position plus its antenna.
struct TxSite {
  geo::Point pos;
  SectorAntenna antenna;
};

/// What every sector and band on one mast shares toward one UE position.
struct MastLink {
  bool los = false;
  double azimuth_deg = 0.0;  // of the UE, seen from the mast
  double d_m = 1.0;          // path_distance_m(): clamped to >= 1 m
  double log10_d = 0.0;      // log10(d_m)
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

  /// The band-independent geometry of the link from `mast` to `ue`.
  [[nodiscard]] MastLink mast_link(const geo::Point& mast,
                                   const geo::Point& ue) const noexcept;

  /// One band's RSRP row: the sector at position i of [first, last)
  /// (`antenna` maps the element to its `const SectorAntenna&`) hangs on
  /// the mast whose link is links[mast_of[i]]. Writes one dBm value per
  /// sector to `out`, each bit-identical to the rsrp_dbm() call for that
  /// sector. The band's log10 f, O2I penetration and shadowing are
  /// evaluated once per row.
  template <class Iter, class Proj>
  void rsrp_row(const CarrierConfig& c, Iter first, Iter last, Proj antenna,
                const std::uint32_t* mast_of, const MastLink* links,
                const geo::Point& ue, double* out) const {
    const double log10_f = std::log10(c.freq_ghz);
    double pen = campus_->o2i_loss_db(ue, c.freq_ghz);
    // Coverage-hole windows add a flat shadowing offset on top of the O2I
    // term; inert (and bit-identical) when no fault runtime is installed.
    if (fault_ != nullptr) pen += fault_->coverage_offset_db();
    const double shadow = field_for(c).at(ue);
    for (Iter it = first; it != last; ++it) {
      const MastLink& l = links[*mast_of++];
      const double pl =
          campus_pathloss_db_from_logs(l.d_m, l.log10_d, log10_f, l.los);
      // Same association as rsrp_dbm(): tx power + (((gain - pl) - pen) -
      // shadow), so each element is bit-identical to the scalar call.
      *out++ = c.tx_re_power_dbm +
               (antenna(*it).gain_dbi(l.azimuth_deg) - pl - pen - shadow);
    }
  }

  [[nodiscard]] const geo::CampusMap& campus() const noexcept {
    return *campus_;
  }

 private:
  [[nodiscard]] const ShadowingField& field_for(
      const CarrierConfig& c) const noexcept;

  const geo::CampusMap* campus_;
  ShadowingField shadow_lte_;
  ShadowingField shadow_nr_;
  // Captured at construction; null when fault injection is off.
  fault::Runtime* fault_;
};

}  // namespace fiveg::radio
