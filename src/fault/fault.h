// Deterministic, schedule-driven fault injection. A FaultPlan is a list of
// timed fault windows (sector outage, link burst loss, link delay spikes,
// server stall, coverage hole); a Runtime holds the plan's live on/off
// state and is installed thread-locally (ScopedFaults, mirroring
// obs::ScopedObs). Every sim::Simulator arms the plan at construction:
// window begin/end toggles are ordinary labelled events, so fault timing
// is part of the deterministic event order and byte-identical at any
// --jobs value. Injection points across the stack (net::Link, ran, radio,
// tcp) query fault::runtime() and do nothing when it is null — with no
// plan installed the whole path is inert.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace fiveg::sim {
class Simulator;
}

namespace fiveg::fault {

/// The injector catalogue (see DESIGN.md §8 for the mapping to paper
/// failure modes).
enum class FaultKind {
  kSectorOutage,  // a cell's PCI stops transmitting (RLF / re-establishment)
  kLinkLoss,      // Bernoulli packet drop on matching net::Links
  kLinkDelay,     // extra one-way delay on matching net::Links (bufferbloat)
  kServerStall,   // the sending application stops writing new data
  kCoverageHole,  // extra path loss on every radio link (shadowing offset)
};

[[nodiscard]] std::string_view to_string(FaultKind kind);

/// One timed fault window, active over [begin, end).
struct FaultSpec {
  FaultKind kind = FaultKind::kLinkLoss;
  sim::Time begin = 0;
  sim::Time end = 0;
  int pci = -1;               // kSectorOutage: the cell to take down
  std::string link{};         // kLinkLoss/kLinkDelay: substring match on the
                              // Link name; empty matches every link
  double loss = 0.0;          // kLinkLoss: drop probability in [0, 1]
  sim::Time extra_delay = 0;  // kLinkDelay: added one-way delay
  double offset_db = 0.0;     // kCoverageHole: extra path loss in dB
};

/// An immutable fault schedule, built programmatically via add() or from
/// the JSON spec ("fiveg-faults/v1", see parse_json).
class FaultPlan {
 public:
  /// Validates and appends one window. Throws std::invalid_argument on a
  /// malformed spec (end <= begin, loss outside [0,1], missing pci, ...).
  void add(FaultSpec spec);

  [[nodiscard]] const std::vector<FaultSpec>& specs() const noexcept {
    return specs_;
  }
  [[nodiscard]] bool empty() const noexcept { return specs_.empty(); }
  [[nodiscard]] bool has_kind(FaultKind kind) const noexcept;

  /// Parses the JSON spec:
  ///   { "schema": "fiveg-faults/v1", "faults": [
  ///       {"kind": "sector_outage", "begin_s": 30, "end_s": 60, "pci": 60},
  ///       {"kind": "link_loss", "begin_s": 5, "end_s": 8,
  ///        "link": "wired", "loss": 0.3},
  ///       {"kind": "link_delay", "begin_s": 10, "end_s": 12,
  ///        "extra_delay_ms": 40},
  ///       {"kind": "server_stall", "begin_s": 14, "end_s": 15},
  ///       {"kind": "coverage_hole", "begin_s": 20, "end_s": 40,
  ///        "offset_db": 30} ] }
  /// Throws std::runtime_error with a message on any malformation.
  [[nodiscard]] static FaultPlan parse_json(std::string_view text);

  /// Reads `path` and parses it. Throws std::runtime_error.
  [[nodiscard]] static FaultPlan load(const std::string& path);

 private:
  std::vector<FaultSpec> specs_;
};

/// Live fault state for one experiment: which plan windows are currently
/// active, plus the seed injection points fork their private RNG streams
/// from. Mutated only by the toggles arm() schedules, queried from the
/// injection points; single-threaded like everything else per experiment.
class Runtime {
 public:
  /// `plan` must outlive the runtime. `seed` should be forked per
  /// experiment (the Runner uses Rng(exp_seed).fork("fault")) so fault
  /// randomness never perturbs the experiment's own streams.
  Runtime(const FaultPlan* plan, std::uint64_t seed);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return *plan_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  // --- hot-path queries (called per packet / per measurement sample) ---

  /// True while a sector-outage window covering `pci` is active.
  [[nodiscard]] bool cell_down(int pci) const noexcept {
    if (down_.empty()) return false;
    for (const auto& [down_pci, count] : down_) {
      if (down_pci == pci && count > 0) return true;
    }
    return false;
  }

  /// Extra path loss (dB) from the active coverage-hole windows.
  [[nodiscard]] double coverage_offset_db() const noexcept {
    return coverage_offset_db_;
  }

  /// True while a server-stall window is active.
  [[nodiscard]] bool server_stalled() const noexcept {
    return server_stall_depth_ > 0;
  }

  /// Combined drop probability of the active loss windows matching
  /// `link_name` (independent drops: 1 - prod(1 - p)).
  [[nodiscard]] double link_loss(std::string_view link_name) const;

  /// Summed extra delay of the active delay windows matching `link_name`.
  [[nodiscard]] sim::Time link_extra_delay(std::string_view link_name) const;

  // --- toggles, driven by the events arm() schedules ---

  void set_active(std::size_t spec_index, bool on);
  [[nodiscard]] bool active(std::size_t spec_index) const noexcept {
    return active_[spec_index];
  }
  /// Returns every window to the inactive state (a new Simulator must not
  /// inherit half-open windows from a previous timeline's unexecuted
  /// end toggles).
  void deactivate_all();

 private:
  const FaultPlan* plan_;
  std::uint64_t seed_;
  std::vector<bool> active_;
  // Active-window aggregates, maintained by set_active.
  std::vector<std::pair<int, int>> down_;  // (pci, active-window count)
  double coverage_offset_db_ = 0.0;
  int server_stall_depth_ = 0;
  int active_link_specs_ = 0;
};

/// The current thread's fault runtime; null (the default) means fault
/// injection is inert everywhere.
[[nodiscard]] Runtime* runtime() noexcept;

/// RAII installer, mirroring obs::ScopedObs: swaps the thread's runtime
/// in, restores the previous one on destruction.
class ScopedFaults {
 public:
  explicit ScopedFaults(Runtime* runtime);
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
  ~ScopedFaults();

 private:
  Runtime* prev_;
};

/// Called by every sim::Simulator at construction. With a runtime
/// installed, resets all windows to inactive and schedules one begin and
/// one end toggle per plan window ("fault.begin" / "fault.end" events,
/// emitting fault.* obs instants and the fault.injected{kind=...} counter
/// when they fire). With no runtime installed this is a no-op.
void arm(sim::Simulator& simulator);

}  // namespace fiveg::fault
