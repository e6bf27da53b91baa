#include "obs/obs.h"

namespace fiveg::obs {

namespace {

thread_local Scope g_scope;

}  // namespace

Tracer* tracer() noexcept { return g_scope.tracer; }

MetricsRegistry* metrics() noexcept { return g_scope.metrics; }

ScopedObs::ScopedObs(Tracer* tracer, MetricsRegistry* metrics)
    : prev_(g_scope) {
  g_scope = Scope{tracer, metrics};
}

ScopedObs::~ScopedObs() { g_scope = prev_; }

}  // namespace fiveg::obs
