#include "net/ran_link.h"

#include <algorithm>
#include <string>

#include "obs/obs.h"

namespace fiveg::net {

sim::Time ran_base_delay(radio::Rat rat) noexcept {
  // Calibration: probe RTT over the hop is 2*(base + E[slot jitter] +
  // E[HARQ extra for a 60 B block]). With the Fig. 10 HARQ points and the
  // slot jitter below this lands on the paper's hop-1 RTTs: 2.19 ms (5G)
  // and 2.6 ms (4G).
  return rat == radio::Rat::kNr ? sim::from_millis(0.46)
                                : sim::from_millis(1.175);
}

sim::Time slot_jitter_span(radio::Rat rat) noexcept {
  return rat == radio::Rat::kNr ? sim::from_millis(1.25)
                                : sim::from_millis(0.15);
}

Link::Config make_ran_link_config(const RanLinkOptions& options,
                                  sim::Rng rng) {
  Link::Config cfg;
  cfg.name = options.rat == radio::Rat::kNr ? "ran-nr" : "ran-lte";
  cfg.rate_bps = options.bitrate_bps;
  cfg.rate_fn = options.rate_fn;
  cfg.prop_delay = ran_base_delay(options.rat);
  cfg.blocked_fn = options.blocked_fn;
  // RAN buffers are deep: HARQ hides loss, and the paper shows the RAN is
  // never the drop bottleneck.
  cfg.queue_bytes =
      options.rat == radio::Rat::kNr ? 3 * 1024 * 1024 : 768 * 1024;

  // HARQ: block error probability scales with transport-block size, so
  // tiny probes almost never retransmit while full MTU data sees the
  // Fig. 10 retransmission distribution.
  const ran::HarqConfig harq_cfg =
      options.rat == radio::Rat::kNr ? ran::nr_harq() : ran::lte_harq();
  auto harq = std::make_shared<ran::HarqProcess>(harq_cfg);
  auto shared_rng = std::make_shared<sim::Rng>(rng);
  const sim::Time jitter_span = slot_jitter_span(options.rat);
  // Capture observability handles once, at config time: metric handles are
  // stable for the registry's lifetime, so the per-packet path below never
  // does a name lookup.
  obs::Tracer* tracer = obs::tracer();
  obs::Counter* retx_blocks = nullptr;
  obs::Digest* attempts_d = nullptr;
  obs::Digest* extra_delay_d = nullptr;
  const char* rat_name = options.rat == radio::Rat::kNr ? "nr" : "lte";
  if (auto* m = obs::metrics()) {
    retx_blocks = &m->counter("ran.harq.retx_blocks");
    attempts_d = &m->digest("ran.harq.attempts", {{"rat", rat_name}});
    extra_delay_d = &m->digest("ran.extra_delay_ms", {{"rat", rat_name}});
  }
  cfg.extra_delay_fn = [harq, shared_rng, jitter_span, tracer, retx_blocks,
                        attempts_d, extra_delay_d,
                        rat_name](sim::Time now,
                                  const Packet& p) -> sim::Time {
    // Slot-alignment wait (uniform over the pattern span).
    sim::Time extra = shared_rng->uniform_int(0, jitter_span);
    const double size_scale = std::min(1.0, p.size_bytes / 1500.0);
    // Thin the first-attempt failure by packet size; retransmission
    // dynamics beyond that follow the configured ladder.
    int attempts = 1;
    if (shared_rng->bernoulli(harq->config().first_bler * size_scale)) {
      // Already failed once; count the remaining attempts.
      attempts = 2;
      while (attempts < ran::kHarqMaxAttempts &&
             shared_rng->bernoulli(harq->config().subsequent_bler)) {
        ++attempts;
      }
      extra += harq->latency_for(attempts);
      if (retx_blocks != nullptr) retx_blocks->add();
      if (tracer != nullptr) {
        tracer->instant(now, "ran.harq_retx", "ran",
                        {{"rat", rat_name},
                         {"attempts", std::to_string(attempts)},
                         {"size_bytes", std::to_string(p.size_bytes)}});
      }
    }
    if (attempts_d != nullptr) attempts_d->observe(attempts);
    if (extra_delay_d != nullptr) {
      extra_delay_d->observe(sim::to_millis(extra));
    }
    return extra;
  };
  return cfg;
}

}  // namespace fiveg::net
