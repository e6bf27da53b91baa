// Cross-stack invariant oracle for the chaos test tier. Faulted runs are
// judged against structural truths that must hold under ANY schedule of
// injected faults — packet conservation, TCP sanity, RRC state-machine
// legality, bounded serving gaps, physical energy accounting — rather
// than against golden KPI values (which faults legitimately move).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ran/rrc.h"
#include "sim/time.h"

namespace fiveg::net {
class Link;
}
namespace fiveg::tcp {
class TcpReceiver;
class TcpSender;
}
namespace fiveg::ran {
class HandoffEngine;
}
namespace fiveg::energy {
struct EnergyResult;
}

namespace fiveg::fault {

/// Collects invariant checks; violations accumulate instead of aborting,
/// so one failed run reports every broken invariant at once.
class InvariantChecker {
 public:
  /// Packet conservation on one link: every packet ever offered to send()
  /// is exactly one of fault-dropped, queue-dropped, delivered, still
  /// queued, or in transit; and CE-marked packets (ECN) never exceed the
  /// surviving (delivered + queued + in-transit) population.
  void check_link_conservation(const net::Link& link);

  /// TCP sanity for one flow:
  ///  - cwnd never collapses below 1 MSS,
  ///  - no delivery without a send (receiver accounting is bounded by the
  ///    sender's send high-water mark),
  ///  - acked <= received <= accepted,
  ///  - retransmissions only happen out of a recovery episode (fast
  ///    retransmit or RTO) — i.e. no spontaneous retransmission.
  void check_tcp(const tcp::TcpSender& sender,
                 const tcp::TcpReceiver& receiver);

  /// Every adjacent pair in an RRC state trajectory is a legal transition
  /// (ran::rrc_transition_legal) and timestamps never decrease.
  void check_rrc_legality(
      const std::vector<std::pair<sim::Time, ran::RrcState>>& trajectory);

  /// The UE is never without a serving cell longer than `bound` per
  /// re-establishment round: every recorded gap is closed and no longer
  /// than `bound`, and the engine is not still re-establishing.
  void check_serving_continuity(const ran::HandoffEngine& engine,
                                sim::Time bound);

  /// Energy accounting is physical: non-negative total energy, no negative
  /// draw sample, and the per-phase residencies cover the whole replay
  /// (sum within one energy::kReplayStep of `duration`, both sides).
  void check_energy(const energy::EnergyResult& result);

  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  [[nodiscard]] std::size_t checks_run() const noexcept {
    return checks_run_;
  }
  [[nodiscard]] const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  /// All violations joined into one human-readable block (for gtest
  /// failure messages); "ok" when none.
  [[nodiscard]] std::string report() const;

 private:
  void require(bool condition, std::string what);

  std::size_t checks_run_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace fiveg::fault
