#include "fault/invariants.h"

#include <utility>

#include "energy/rrc_power_machine.h"
#include "net/link.h"
#include "ran/handoff.h"
#include "tcp/tcp_receiver.h"
#include "tcp/tcp_sender.h"

namespace fiveg::fault {

void InvariantChecker::require(bool condition, std::string what) {
  ++checks_run_;
  if (!condition) violations_.push_back(std::move(what));
}

std::string InvariantChecker::report() const {
  if (violations_.empty()) return "ok";
  std::string out = "invariant violations:";
  for (const std::string& v : violations_) {
    out += "\n  - ";
    out += v;
  }
  return out;
}

void InvariantChecker::check_link_conservation(const net::Link& link) {
  const std::uint64_t accounted =
      link.fault_dropped_packets() + link.dropped_packets() +
      link.delivered_packets() + link.queue_packets() +
      link.in_transit_packets();
  require(link.offered_packets() == accounted,
          "link '" + link.config().name + "': offered " +
              std::to_string(link.offered_packets()) + " != accounted " +
              std::to_string(accounted) + " (fault_dropped " +
              std::to_string(link.fault_dropped_packets()) + " + dropped " +
              std::to_string(link.dropped_packets()) + " + delivered " +
              std::to_string(link.delivered_packets()) + " + queued " +
              std::to_string(link.queue_packets()) + " + in_transit " +
              std::to_string(link.in_transit_packets()) + ", marked " +
              std::to_string(link.marked_packets()) + ")");
  // CE-marked packets are signalled, never lost: each one is still in
  // exactly one of the surviving buckets.
  const std::uint64_t surviving = link.delivered_packets() +
                                  link.queue_packets() +
                                  link.in_transit_packets();
  require(link.marked_packets() <= surviving,
          "link '" + link.config().name + "': marked " +
              std::to_string(link.marked_packets()) +
              " exceeds surviving packets " + std::to_string(surviving) +
              " (delivered + queued + in_transit)");
}

void InvariantChecker::check_tcp(const tcp::TcpSender& sender,
                                 const tcp::TcpReceiver& receiver) {
  const auto mss = static_cast<double>(tcp::kMssBytes);
  require(sender.cwnd_bytes() >= mss,
          "tcp: cwnd " + std::to_string(sender.cwnd_bytes()) +
              " bytes below 1 MSS (" + std::to_string(mss) + ")");
  require(receiver.total_accepted() <= sender.max_sent_seq(),
          "tcp: receiver accepted " +
              std::to_string(receiver.total_accepted()) +
              " bytes but sender only ever sent up to " +
              std::to_string(sender.max_sent_seq()));
  require(receiver.bytes_received() <= sender.max_sent_seq(),
          "tcp: receiver holds " + std::to_string(receiver.bytes_received()) +
              " contiguous bytes but sender only ever sent up to " +
              std::to_string(sender.max_sent_seq()));
  require(sender.bytes_acked() <= receiver.bytes_received(),
          "tcp: sender saw " + std::to_string(sender.bytes_acked()) +
              " bytes acked but receiver only received " +
              std::to_string(receiver.bytes_received()));
  require(sender.retransmissions() == 0 ||
              sender.fast_recoveries() + sender.timeouts() > 0,
          "tcp: " + std::to_string(sender.retransmissions()) +
              " retransmissions without any recovery episode");
}

void InvariantChecker::check_rrc_legality(
    const std::vector<std::pair<sim::Time, ran::RrcState>>& trajectory) {
  require(!trajectory.empty(), "rrc: empty state trajectory");
  for (std::size_t i = 1; i < trajectory.size(); ++i) {
    const auto& [t_prev, s_prev] = trajectory[i - 1];
    const auto& [t_cur, s_cur] = trajectory[i];
    require(t_cur >= t_prev,
            "rrc: trajectory time went backwards at step " +
                std::to_string(i));
    require(ran::rrc_transition_legal(s_prev, s_cur),
            "rrc: illegal transition " + ran::to_string(s_prev) + " -> " +
                ran::to_string(s_cur) + " at t=" +
                std::to_string(sim::to_millis(t_cur)) + "ms");
  }
}

void InvariantChecker::check_serving_continuity(
    const ran::HandoffEngine& engine, sim::Time bound) {
  require(!engine.reestablishing(),
          "serving: run ended while still re-establishing");
  for (const auto& gap : engine.serving_gaps()) {
    require(gap.end >= 0, "serving: gap at t=" +
                              std::to_string(sim::to_millis(gap.begin)) +
                              "ms never closed");
    if (gap.end < 0) continue;
    require(gap.end - gap.begin <= bound,
            "serving: gap of " +
                std::to_string(sim::to_millis(gap.end - gap.begin)) +
                "ms exceeds the re-establishment bound of " +
                std::to_string(sim::to_millis(bound)) + "ms");
  }
}

void InvariantChecker::check_energy(const energy::EnergyResult& result) {
  require(result.radio_joules >= 0.0,
          "energy: negative total energy " +
              std::to_string(result.radio_joules) + " J");
  bool all_nonnegative = true;
  for (const measure::TimePoint& p : result.power_trace_mw.points()) {
    if (p.value < 0.0) all_nonnegative = false;
  }
  require(all_nonnegative, "energy: negative draw sample in power trace");
  const sim::Time residency_sum = result.residency_idle +
                                  result.residency_promoting +
                                  result.residency_connected;
  const sim::Time diff = residency_sum - result.duration;
  require(diff >= 0 && diff <= 2 * energy::kReplayStep,
          "energy: residencies sum to " +
              std::to_string(sim::to_millis(residency_sum)) +
              "ms but replay duration is " +
              std::to_string(sim::to_millis(result.duration)) + "ms");
}

}  // namespace fiveg::fault
