#include "ran/drx.h"

namespace fiveg::ran {

RadioActivity connected_activity(const DrxConfig& drx,
                                 sim::Time since_activity) {
  if (since_activity < 0) return RadioActivity::kTransfer;
  if (since_activity < drx.inactivity) {
    // Inactivity timer still running: receiver fully on.
    return RadioActivity::kTailAwake;
  }
  if (since_activity >= drx.tail) {
    // Tail expired; caller should have moved to idle. Report paging sleep
    // so a stale query is still safe.
    return RadioActivity::kPagingSleep;
  }
  const sim::Time in_cycle =
      (since_activity - drx.inactivity) % kLongDrxCycle;
  return in_cycle < kOnDuration ? RadioActivity::kTailAwake
                                    : RadioActivity::kTailSleep;
}

RadioActivity idle_activity(sim::Time since_idle_start) {
  if (since_idle_start < 0) since_idle_start = 0;
  const sim::Time in_cycle = since_idle_start % kPagingCycle;
  return in_cycle < kOnDuration ? RadioActivity::kPagingAwake
                                    : RadioActivity::kPagingSleep;
}

double tail_duty_cycle() noexcept {
  return static_cast<double>(kOnDuration) /
         static_cast<double>(kLongDrxCycle);
}

}  // namespace fiveg::ran
