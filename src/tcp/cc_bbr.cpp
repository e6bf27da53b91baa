#include <algorithm>

#include "tcp/cc_algorithms.h"
#include "tcp/tcp_endpoint.h"

namespace fiveg::tcp {
namespace {

constexpr std::uint64_t kBwWindowRounds = 10;
constexpr sim::Time kRtPropWindow = 10 * sim::kSecond;
constexpr sim::Time kProbeRttDuration = 200 * sim::kMillisecond;
constexpr double kMinCwndMss = 4.0;

}  // namespace

BbrCc::BbrCc(CcSeed seed) {
  if (seed.rate_bps > 0 && seed.rtt > 0) {
    // Deterministic start (the paper's cited slow-start replacement): the
    // model is pre-seeded, so the flow opens directly in ProbeBW at full
    // rate instead of spending ~6 s climbing.
    bw_samples_.emplace_back(0, seed.rate_bps);
    rt_prop_ = seed.rtt;
    rt_prop_stamp_ = 0;
    mode_ = Mode::kProbeBw;
    pacing_gain_ = kPacingCycle[0];
    cwnd_gain_ = 2.0;
  }
}

double BbrCc::btl_bw_bps() const {
  return bw_samples_.empty() ? 0.0 : bw_samples_.front().second;
}

double BbrCc::bdp_bytes(double gain) const {
  const double bw = btl_bw_bps();
  if (bw <= 0.0 || rt_prop_ <= 0) return kMinCwndMss * kMssBytes * kHighGain;
  return gain * bw / 8.0 * sim::to_seconds(rt_prop_);
}

double BbrCc::cwnd_bytes() const {
  double w = mode_ == Mode::kProbeRtt
                 ? kMinCwndMss * kMssBytes
                 : std::max(bdp_bytes(cwnd_gain_), kMinCwndMss * kMssBytes);
  if (ecn_cap_bytes_ > 0.0) w = std::min(w, ecn_cap_bytes_);
  return w;
}

double BbrCc::pacing_rate_bps() const {
  // Floor: always willing to pace at least a minimum window per RTprop,
  // so a depressed bandwidth estimate cannot starve its own probing.
  const double floor_rtt_s =
      rt_prop_ > 0 ? sim::to_seconds(rt_prop_) : 0.010;
  const double floor_bps = kMinCwndMss * kMssBytes * 8.0 / floor_rtt_s;
  const double bw = btl_bw_bps();
  return std::max(pacing_gain_ * bw, floor_bps);
}

void BbrCc::update_round(const AckEvent& e) {
  // Time-based rounds: one per RTprop (with a floor while no estimate
  // exists). Packet-counting rounds mis-fire early in a paced startup when
  // little data is in flight.
  const sim::Time round_len =
      std::max<sim::Time>(rt_prop_, 10 * sim::kMillisecond);
  if (e.now >= round_start_ + round_len) {
    round_start_ = e.now;
    ++round_;
  }
}

void BbrCc::update_btl_bw(const AckEvent& e) {
  if (e.delivery_rate_bps <= 0.0) return;
  // App-limited samples can only raise the estimate (RFC draft rule).
  if (e.app_limited && e.delivery_rate_bps <= btl_bw_bps()) return;
  // A sample no larger than a newer one can never be the window max
  // again, so the deque stays strictly decreasing and its front is the max.
  while (!bw_samples_.empty() &&
         bw_samples_.back().second <= e.delivery_rate_bps) {
    bw_samples_.pop_back();
  }
  bw_samples_.emplace_back(round_, e.delivery_rate_bps);
  while (!bw_samples_.empty() &&
         bw_samples_.front().first + kBwWindowRounds < round_) {
    bw_samples_.pop_front();
  }
}

void BbrCc::advance_machine(const AckEvent& e) {
  switch (mode_) {
    case Mode::kStartup: {
      // Plateau detection, once per round: <25% growth for 3 rounds.
      if (round_ != last_plateau_check_round_) {
        last_plateau_check_round_ = round_;
        const double bw = btl_bw_bps();
        if (bw >= full_bw_ * 1.25 || full_bw_ == 0.0) {
          full_bw_ = bw;
          full_bw_rounds_ = 0;
        } else if (++full_bw_rounds_ >= 3) {
          mode_ = Mode::kDrain;
          pacing_gain_ = 1.0 / kHighGain;
          cwnd_gain_ = kHighGain;
        }
      }
      break;
    }
    case Mode::kDrain:
      if (static_cast<double>(e.bytes_in_flight) <= bdp_bytes(1.0)) {
        mode_ = Mode::kProbeBw;
        cycle_index_ = 0;
        cycle_stamp_ = e.now;
        pacing_gain_ = kPacingCycle[0];
        cwnd_gain_ = 2.0;
      }
      break;
    case Mode::kProbeBw:
      if (e.now - cycle_stamp_ >= std::max<sim::Time>(rt_prop_, 1)) {
        cycle_index_ = (cycle_index_ + 1) % kPacingCycle.size();
        cycle_stamp_ = e.now;
        pacing_gain_ = kPacingCycle[cycle_index_];
      }
      break;
    case Mode::kProbeRtt:
      if (e.now >= probe_rtt_done_) {
        rt_prop_stamp_ = e.now;  // fresh lease on the estimate
        mode_ = mode_before_probe_rtt_;
        pacing_gain_ = mode_ == Mode::kStartup ? kHighGain
                                               : kPacingCycle[cycle_index_];
        cwnd_gain_ = mode_ == Mode::kStartup ? kHighGain : 2.0;
      }
      break;
  }

  // ProbeRTT entry: the rt_prop estimate has gone stale.
  if (mode_ != Mode::kProbeRtt && rt_prop_ > 0 &&
      e.now - rt_prop_stamp_ > kRtPropWindow) {
    mode_before_probe_rtt_ = mode_ == Mode::kStartup ? Mode::kProbeBw : mode_;
    mode_ = Mode::kProbeRtt;
    pacing_gain_ = 1.0;
    cwnd_gain_ = 1.0;
    probe_rtt_done_ = e.now + kProbeRttDuration;
  }
}

void BbrCc::on_ack(const AckEvent& e) {
  if (ecn_cap_bytes_ > 0.0 && e.now >= ecn_cap_until_) ecn_cap_bytes_ = 0.0;
  if (e.rtt > 0 && (rt_prop_ == 0 || e.rtt <= rt_prop_ ||
                    e.now - rt_prop_stamp_ > kRtPropWindow)) {
    rt_prop_ = e.rtt;
    rt_prop_stamp_ = e.now;
  }
  update_round(e);
  update_btl_bw(e);
  advance_machine(e);
}

void BbrCc::on_loss(sim::Time /*now*/, std::uint64_t /*bytes_in_flight*/) {
  // BBR v1 deliberately ignores individual losses.
}

void BbrCc::on_ecn(sim::Time now, std::uint64_t /*bytes_in_flight*/) {
  // A CE mark is an unambiguous congestion signal even for a model-based
  // sender, so it gets a real response where on_loss() has none: cap the
  // window at half for one RTprop, then let the model take back over.
  ecn_cap_bytes_ = std::max(cwnd_bytes() * 0.5, kMinCwndMss * kMssBytes);
  ecn_cap_until_ =
      now + std::max<sim::Time>(rt_prop_, 10 * sim::kMillisecond);
}

void BbrCc::on_timeout(sim::Time /*now*/) {
  // Keep the bandwidth model (as Linux BBR does): wiping it after a burst
  // of loss leaves pacing anchored to a near-zero estimate, a trap the
  // flow can take tens of seconds to probe its way out of.
  if (mode_ == Mode::kStartup) {
    full_bw_ = 0.0;
    full_bw_rounds_ = 0;
  }
}

}  // namespace fiveg::tcp
