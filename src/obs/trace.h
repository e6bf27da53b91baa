// Structured tracing for the simulated stack — the reproduction's answer to
// the paper's XCAL-Mobile timeline. Layers emit spans (begin/end), instant
// events and counter tracks into a ring-buffered Tracer whose contents
// export to the Chrome trace_event JSON format (chrome://tracing, Perfetto)
// via obs/chrome_trace.h.
//
// Every event is stamped in *simulated* time, so a trace is a pure function
// of the experiment seed: byte-identical across --jobs values and safe to
// diff in CI. Wall-clock profiling lives in obs::MetricsRegistry (kWall
// metrics), never in trace events.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace fiveg::obs {

class Counter;

/// Key/value annotations attached to an event. Values are emitted as JSON
/// strings (the Chrome writer escapes them).
using TraceArgs = std::vector<std::pair<std::string, std::string>>;

/// One structured trace record.
struct TraceEvent {
  enum class Phase : std::uint8_t {
    kBegin,    // span open  -> Chrome "B"
    kEnd,      // span close -> Chrome "E"
    kInstant,  // point event -> Chrome "i"
    kCounter,  // counter-track sample -> Chrome "C"
  };

  Phase phase = Phase::kInstant;
  sim::Time at = 0;    // simulated time
  std::string name;    // e.g. "ran.handoff", or the track name for counters
  std::string cat;     // layer track: "sim", "ran", "tcp", "net", "energy"
  double value = 0.0;  // counter tracks only
  TraceArgs args;
};

/// Ring-buffered tracer: keeps the most recent `capacity` events, counts
/// what it had to drop. Single-threaded, like everything else in one
/// experiment run.
class Tracer final {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 18;  // events

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  void emit(TraceEvent e);

  void begin(sim::Time at, std::string_view name, std::string_view cat,
             TraceArgs args = {});
  void end(sim::Time at, std::string_view name, std::string_view cat);
  void instant(sim::Time at, std::string_view name, std::string_view cat,
               TraceArgs args = {});
  /// Samples a counter track (e.g. queue depth, cwnd). `track` doubles as
  /// the event name.
  void counter(sim::Time at, std::string_view track, std::string_view cat,
               double value);

  /// Replays another tracer's buffered events into this ring (oldest
  /// first) and inherits its drop count. sim::ParSim concatenates lane
  /// rings in lane-index order after the lanes have quiesced, so the
  /// merged stream is identical for any worker-thread count.
  void append_from(const Tracer& other);

  /// Buffered events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;
  /// Visits buffered events oldest-first without copying.
  void for_each(const std::function<void(const TraceEvent&)>& fn) const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t buffered() const noexcept { return ring_.size(); }
  /// Total events ever emitted (>= buffered()).
  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }
  /// Events lost to ring wraparound, including drops inherited from
  /// appended lane tracers.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return emitted_ - ring_.size() + inherited_drops_;
  }

 private:
  // First-wrap slow path: warns once on stderr and resolves the
  // obs.trace.dropped_events counter (kWall domain, so the deterministic
  // counters object never depends on trace capacity).
  void on_drop();

  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // next overwrite slot once the ring is full
  std::uint64_t emitted_ = 0;
  std::uint64_t inherited_drops_ = 0;
  bool warned_wrap_ = false;
  bool drop_counter_resolved_ = false;
  Counter* drop_counter_ = nullptr;
};

}  // namespace fiveg::obs
