// The per-thread observability scope. The Runner installs a Tracer and a
// MetricsRegistry for the duration of one experiment run (each worker
// thread gets its own pair, which is what keeps instrumentation both
// lock-free and deterministic); instrumented layers read the scope through
// obs::tracer()/obs::metrics() and do nothing when it is empty.
//
// The disabled path is one thread-local load plus a null check — cheap
// enough to leave instrumentation unconditionally compiled in (see
// BENCH_obs.json for the measured Simulator::run overhead).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fiveg::obs {

/// What is installed on the current thread. Both pointers may be null
/// independently (e.g. metrics collection without tracing).
struct Scope {
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
};

/// Shorthands; null when nothing is installed.
[[nodiscard]] Tracer* tracer() noexcept;
[[nodiscard]] MetricsRegistry* metrics() noexcept;

/// RAII installer: swaps the thread's scope in, restores the previous one
/// on destruction (nests correctly).
class ScopedObs {
 public:
  ScopedObs(Tracer* tracer, MetricsRegistry* metrics);
  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;
  ~ScopedObs();

 private:
  Scope prev_;
};

/// A digest resolved by name once per metrics registry, not once per
/// observation: for hot free functions that have no object to keep a
/// handle in. Keep one per thread (`thread_local`). get() returns the
/// installed registry's digest `name`, created on first use exactly as
/// MetricsRegistry::digest would, or null with no metrics scope.
class ScopedDigest {
 public:
  explicit ScopedDigest(std::string name) : name_(std::move(name)) {}
  [[nodiscard]] Digest* get();

 private:
  std::string name_;
  std::uint64_t registry_ = 0;  // MetricsRegistry::id() digest_ belongs to
  Digest* digest_ = nullptr;
};

}  // namespace fiveg::obs
