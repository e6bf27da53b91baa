#include "ran/prb_scheduler.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"

namespace fiveg::ran {

namespace {

// One handle per RAT, resolved once per registry.
void observe_prb(radio::Rat rat, double fraction) {
  thread_local obs::ScopedDigest nr(
      obs::labeled("ran.prb_fraction", {{"rat", "nr"}}));
  thread_local obs::ScopedDigest lte(
      obs::labeled("ran.prb_fraction", {{"rat", "lte"}}));
  if (obs::Digest* d = (rat == radio::Rat::kNr ? nr : lte).get()) {
    d->observe(fraction);
  }
}

}  // namespace

PrbScheduler::PrbScheduler(radio::CarrierConfig carrier, int competing_users)
    : carrier_(std::move(carrier)),
      competing_users_(std::max(0, competing_users)) {}

double PrbScheduler::grant_fraction(sim::Rng& rng) const {
  double fraction;
  if (competing_users_ == 0) {
    // Alone on the carrier: scheduler still withholds a few PRBs for
    // SIB/paging — the paper sees 260-264 of 264.
    fraction = rng.uniform(0.985, 1.0);
  } else {
    const double fair = 1.0 / (1.0 + competing_users_);
    // Proportional-fair jitter around the equal share.
    fraction = std::clamp(fair * rng.uniform(0.8, 1.2), 0.0, 1.0);
  }
  observe_prb(carrier_.rat, fraction);
  return fraction;
}

}  // namespace fiveg::ran
