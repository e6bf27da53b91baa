#include "net/cross_traffic.h"

namespace fiveg::net {

CrossTraffic::CrossTraffic(sim::Simulator* simulator, Link* link,
                           double mean_on_s, sim::Rng rng)
    : sim_(simulator), link_(link), mean_on_s_(mean_on_s), rng_(rng) {}

void CrossTraffic::start(sim::Time until) {
  until_ = until;
  begin_off();
}

double CrossTraffic::mean_offered_bps() const noexcept {
  const double duty = mean_on_s_ / (mean_on_s_ + kMeanOffS);
  return duty * 0.5 * (kMinRateBps + kMaxRateBps);
}

void CrossTraffic::begin_off() {
  if (sim_->now() >= until_) return;
  const double gap_s = rng_.exponential(1.0 / kMeanOffS);
  sim_->schedule_in(sim::from_seconds(gap_s), [this] { begin_on(); });
}

void CrossTraffic::begin_on() {
  if (sim_->now() >= until_) return;
  const double rate = rng_.uniform(kMinRateBps, kMaxRateBps);
  const double on_s = rng_.exponential(1.0 / mean_on_s_);
  const sim::Time burst_end = sim_->now() + sim::from_seconds(on_s);
  emit(rate, burst_end);
  sim_->schedule_at(burst_end, [this] { begin_off(); });
}

void CrossTraffic::emit(double rate_bps, sim::Time burst_end) {
  if (sim_->now() >= burst_end || sim_->now() >= until_) return;
  Packet p;
  p.flow_id = kFlowId;
  p.seq = sent_++;
  p.size_bytes = kPacketBytes;
  p.sent_at = sim_->now();
  // Ambient traffic shares only this router: it exits the measured path
  // right after the contended link (TTL expires at the next node).
  p.ttl = 1;
  link_->send(std::move(p));
  const double bits = 8.0 * kPacketBytes;
  const auto gap =
      static_cast<sim::Time>(bits / rate_bps * static_cast<double>(sim::kSecond));
  sim_->schedule_in(gap, [this, rate_bps, burst_end] {
    emit(rate_bps, burst_end);
  });
}

}  // namespace fiveg::net
