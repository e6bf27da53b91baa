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

Digest* ScopedDigest::get() {
  MetricsRegistry* reg = g_scope.metrics;
  if (reg == nullptr) return nullptr;
  if (reg->id() != registry_) {
    digest_ = &reg->digest(name_);
    registry_ = reg->id();
  }
  return digest_;
}

}  // namespace fiveg::obs
