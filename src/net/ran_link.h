// The radio-access hop as a Link::Config: rate from the link adaptation
// model (static operating point or a live callback), deep RAN buffers,
// HARQ retransmission delay that scales with transport-block size, and an
// optional hand-off outage hook.
#pragma once

#include <functional>
#include <memory>

#include "net/link.h"
#include "radio/carrier.h"
#include "ran/harq.h"
#include "sim/rng.h"

namespace fiveg::net {

/// Operating point / hooks for building a RAN hop.
struct RanLinkOptions {
  radio::Rat rat = radio::Rat::kNr;
  /// Static bit-rate of the hop; ignored when `rate_fn` is set.
  double bitrate_bps = 880e6;
  std::function<double()> rate_fn;
  /// Outage predicate (e.g. HandoffEngine::data_interrupted at now()).
  std::function<bool()> blocked_fn;
};

/// Worst-case slot-alignment wait on the hop. TDD NR packets wait for a
/// slot in their direction (2.5 ms pattern, 3:1 split) — the dominant
/// source of the 5G RAN hop's RTT spread in Table 3; FDD LTE only jitters
/// by scheduling-grant noise.
[[nodiscard]] sim::Time slot_jitter_span(radio::Rat rat) noexcept;

/// One-way propagation + processing delay of the RAN hop, calibrated so
/// the probe RTT of hop 1 matches the paper's Fig. 14 (2.19 ms for 5G,
/// 2.6 ms for 4G including the HARQ expectation).
[[nodiscard]] sim::Time ran_base_delay(radio::Rat rat) noexcept;

/// Builds the Link::Config for a RAN hop. The returned config owns shared
/// state (an RNG and HARQ process) via its callbacks.
[[nodiscard]] Link::Config make_ran_link_config(const RanLinkOptions& options,
                                                sim::Rng rng);

}  // namespace fiveg::net
