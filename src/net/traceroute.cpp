#include "net/traceroute.h"

#include <memory>
#include <utility>

namespace fiveg::net {
namespace {

constexpr sim::Time kProbeTimeout = sim::kSecond;

}  // namespace

Traceroute::Traceroute(sim::Simulator* simulator, PathNetwork* path, int reps,
                       sim::Time gap)
    : sim_(simulator), path_(path), reps_(reps), gap_(gap) {
  results_.resize(path_->hop_count());
  for (std::size_t h = 0; h < results_.size(); ++h) results_[h].hop = h + 1;
}

void Traceroute::run(Done done) {
  done_ = std::move(done);
  send_round(0);
}

void Traceroute::send_round(int round) {
  if (round >= reps_) {
    all_sent_ = true;
    finish_if_done();
    return;
  }
  for (std::size_t h = 1; h <= path_->hop_count(); ++h) {
    ++outstanding_;
    // Shared flag: first of {reply, timeout} wins.
    auto answered = std::make_shared<bool>(false);
    const std::size_t idx = h - 1;
    path_->probe(h, [this, idx, answered](sim::Time rtt) {
      if (*answered) return;
      *answered = true;
      results_[idx].rtt_ms.add(sim::to_millis(rtt));
      --outstanding_;
      finish_if_done();
    });
    sim_->schedule_in(kProbeTimeout, [this, idx, answered] {
      if (*answered) return;
      *answered = true;
      ++results_[idx].lost;
      --outstanding_;
      finish_if_done();
    });
  }
  sim_->schedule_in(gap_, [this, round] { send_round(round + 1); });
}

void Traceroute::finish_if_done() {
  if (all_sent_ && outstanding_ == 0 && done_) {
    auto done = std::move(done_);
    done_ = nullptr;
    done(results_);
  }
}

double estimate_buffer_packets(const measure::RunningStats& rtt_ms) noexcept {
  constexpr double kCapacityBps = 1e9;
  constexpr int kPacketBytes = 60;
  if (rtt_ms.count() < 2) return 0.0;
  const double spread_s = (rtt_ms.max() - rtt_ms.min()) / 1000.0;
  return spread_s * kCapacityBps / (8.0 * kPacketBytes);
}

}  // namespace fiveg::net
