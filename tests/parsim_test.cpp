// Tests for the conservative-lookahead parallel simulation core
// (sim::ParSim). The contract under test is bit-exact determinism: for
// any partition count, lookahead window and worker-thread count, the
// merged event order, KPIs, metrics, traces and self-profiler accounting
// must equal the serial (threads = 1) schedule exactly — EXPECT_EQ on
// everything, no tolerances.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "sim/lane.h"
#include "sim/parsim.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace fiveg::sim {
namespace {

// A lookahead comfortably above the parallel-fallback floor.
constexpr Time kLook = 200 * kMicrosecond;

// Splitmix-style step: deterministic per-lane randomness with no global
// state, so the workload itself is identical for every thread count.
std::uint64_t lcg_next(std::uint64_t* s) {
  *s += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = *s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Canonical transcript of one randomized multi-lane run: per-lane event
// logs (lane-local, so no cross-thread interleaving ambiguity), the
// merged deterministic metrics, the merged trace and the window/event
// totals. Two transcripts compare with ==.
struct Transcript {
  std::vector<std::vector<std::string>> lane_log;
  std::string metrics;  // parent-registry kSim snapshot, flattened
  std::string profile;  // parent-registry kWall churn counters
  std::vector<std::string> trace;
  std::uint64_t windows = 0;
  std::uint64_t executed = 0;
  std::uint64_t trace_dropped = 0;

  bool operator==(const Transcript& o) const {
    return lane_log == o.lane_log && metrics == o.metrics &&
           profile == o.profile && trace == o.trace && windows == o.windows &&
           executed == o.executed && trace_dropped == o.trace_dropped;
  }
};

std::string flatten(const std::vector<obs::MetricSnapshot>& snaps) {
  std::ostringstream os;
  for (const auto& s : snaps) {
    os << s.name << '=' << s.value << ",max=" << s.max << ",n=" << s.count
       << ",sum=" << s.sum << ';';
  }
  return os.str();
}

// The self-profiler churn counters whose totals must not depend on which
// thread ran which lane window (the satellite-4 regression surface).
std::string churn_of(const obs::MetricsRegistry& reg) {
  std::ostringstream os;
  for (const auto& s : reg.snapshot(obs::MetricClock::kWall)) {
    if (s.name == obs::prof::kScheduledMetric ||
        s.name == obs::prof::kCancelledMetric ||
        s.name == obs::prof::kHeapAllocMetric ||
        s.name == "obs.trace.dropped_events") {
      os << s.name << '=' << s.value << ';';
    }
  }
  return os.str();
}

// Runs the reference randomized workload: `lanes` self-rescheduling event
// chains with jittered spacing, cross-lane sends at the lookahead horizon
// (a fraction of them cancelled from a third lane), per-lane metric
// emissions that collide on shared names, and a deliberately tiny parent
// trace ring so drop accounting is exercised too.
Transcript run_workload(int lanes, int threads, std::uint64_t seed,
                        std::size_t trace_capacity = 1 << 12) {
  obs::MetricsRegistry parent_reg;
  obs::Tracer parent_trace(trace_capacity);
  obs::ScopedObs scope(&parent_trace, &parent_reg);

  Transcript out;
  out.lane_log.resize(static_cast<std::size_t>(lanes));

  ParSimConfig cfg;
  cfg.lanes = lanes;
  cfg.threads = threads;
  cfg.lookahead = kLook;
  ParSim par(cfg);

  struct LaneState {
    std::uint64_t rng = 0;
    std::uint64_t ticks = 0;
  };
  std::vector<LaneState> state(static_cast<std::size_t>(lanes));
  // Per-lane cancel pools: lane events run concurrently, so each lane
  // may only touch its own slot (shared state would be a data race AND
  // a determinism leak).
  std::vector<std::vector<CrossEventId>> cancellable(
      static_cast<std::size_t>(lanes));
  // The chains must outlive the loop body: scheduled copies re-schedule
  // by reference to these slots.
  std::vector<std::function<void()>> chains(static_cast<std::size_t>(lanes));

  const Time deadline = 20 * kMillisecond;
  for (int k = 0; k < lanes; ++k) {
    state[static_cast<std::size_t>(k)].rng = seed + 1000ull * (k + 1);
    // Each lane's chain: log, emit metrics/trace, reschedule with jitter,
    // occasionally send across (target >= now + lookahead always).
    chains[static_cast<std::size_t>(k)] = [&, k] {
      auto& st = state[static_cast<std::size_t>(k)];
      auto& log = out.lane_log[static_cast<std::size_t>(k)];
      Simulator& self = par.lane(k);
      const std::uint64_t draw = lcg_next(&st.rng);
      ++st.ticks;
      log.push_back("t=" + std::to_string(self.now()) +
                    " n=" + std::to_string(st.ticks));
      obs::metrics()->counter("work.ticks").add(1);
      obs::metrics()->counter("work.lane", {{"k", std::to_string(k)}}).add(1);
      obs::metrics()->gauge("work.last_draw").set(
          static_cast<double>(draw % 1024));
      obs::tracer()->instant(self.now(), "work.tick", "sim");
      if (lanes > 1 && draw % 7 == 0) {
        const int to = static_cast<int>(draw / 7 % static_cast<unsigned>(lanes));
        const Time at = self.now() + kLook + Time(100 + draw % 5000);
        const CrossEventId id =
            par.send(to, at, "x.ping", [&out, to, at] {
              out.lane_log[static_cast<std::size_t>(to)].push_back(
                  "x@" + std::to_string(at));
            });
        if (draw % 3 == 0) {
          cancellable[static_cast<std::size_t>(k)].push_back(id);
        }
      }
      auto& own_cancels = cancellable[static_cast<std::size_t>(k)];
      if (!own_cancels.empty() && draw % 11 == 0) {
        // Cross-partition cancel: may be too late (then a deterministic
        // no-op) or in time (then the ping never fires) — either way the
        // outcome is a pure function of the timeline.
        par.cancel(own_cancels.back());
        own_cancels.pop_back();
      }
      const Time next = self.now() + 5 * kMicrosecond + Time(draw % 40000);
      if (next <= deadline) {
        self.schedule_at(next, "work.chain",
                         [&chains, k] { chains[static_cast<std::size_t>(k)](); });
      }
    };
    par.with_lane(k, [&, k] {
      par.lane(k).schedule_at(Time(1000) * (k + 1), "work.chain", [&chains, k] {
        chains[static_cast<std::size_t>(k)]();
      });
    });
  }

  par.run_until(deadline);
  out.windows = par.windows();
  out.executed = par.executed_events();
  par.finish();

  out.metrics = flatten(parent_reg.snapshot(obs::MetricClock::kSim));
  out.profile = churn_of(parent_reg);
  parent_trace.for_each([&](const obs::TraceEvent& e) {
    out.trace.push_back(std::to_string(e.at) + ":" + e.name);
  });
  out.trace_dropped = parent_trace.dropped();
  return out;
}

TEST(ParSimTest, FallsBackToSerialWhenStructureIsTooTight) {
  ParSimConfig cfg;
  cfg.lanes = 4;
  cfg.threads = 8;
  cfg.lookahead = kMinParallelLookahead - 1;
  ParSim tight(cfg);
  EXPECT_FALSE(tight.parallel_active());
  EXPECT_EQ(tight.effective_threads(), 1);

  cfg.lookahead = kLook;
  cfg.lanes = 1;  // a single lane never parallelises
  ParSim single(cfg);
  EXPECT_FALSE(single.parallel_active());

  cfg.lanes = 4;
  ParSim par(cfg);
  EXPECT_TRUE(par.parallel_active());
  EXPECT_EQ(par.effective_threads(), 4);
  EXPECT_EQ(par.lanes(), 4);
}

TEST(ParSimTest, SameTimeEventsKeepFifoOrderWithinLane) {
  ParSimConfig cfg;
  cfg.lanes = 2;
  cfg.threads = 4;
  cfg.lookahead = kLook;
  ParSim par(cfg);
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    par.lane(0).schedule_at(5 * kMicrosecond, [&order, i] {
      order.push_back(i);
    });
  }
  par.run_until(kMillisecond);
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(ParSimTest, ControlRunsBeforeLaneEventsAtEqualTimestamps) {
  ParSimConfig cfg;
  cfg.lanes = 2;
  cfg.threads = 2;
  cfg.lookahead = kLook;
  ParSim par(cfg);
  const Time t = 300 * kMicrosecond;
  bool lane_ran = false;
  bool control_saw_lane = true;
  par.lane(1).schedule_at(t, [&] { lane_ran = true; });
  par.control().schedule_at(t, [&] { control_saw_lane = lane_ran; });
  par.run_until(kMillisecond);
  EXPECT_TRUE(lane_ran);
  EXPECT_FALSE(control_saw_lane)
      << "control events at time T must run before lane events at T";
}

TEST(ParSimTest, CrossLaneSendLandsAtRequestedTime) {
  ParSimConfig cfg;
  cfg.lanes = 2;
  cfg.threads = 2;
  cfg.lookahead = kLook;
  ParSim par(cfg);
  Time landed_at = 0;
  Time sent_from = 0;
  par.lane(0).schedule_at(50 * kMicrosecond, [&] {
    sent_from = par.lane(0).now();
    par.send(1, sent_from + kLook + 10, "x.hop", [&] {
      landed_at = par.lane(1).now();
    });
  });
  par.run_until(kMillisecond);
  EXPECT_EQ(sent_from, 50 * kMicrosecond);
  EXPECT_EQ(landed_at, 50 * kMicrosecond + kLook + 10);
}

TEST(ParSimTest, SendBelowLookaheadHorizonThrows) {
  ParSimConfig cfg;
  cfg.lanes = 2;
  cfg.threads = 2;
  cfg.lookahead = kLook;
  ParSim par(cfg);
  par.lane(0).schedule_at(10 * kMicrosecond, [&] {
    par.send(1, par.lane(0).now() + kLook - 1, "x.early", [] {});
  });
  EXPECT_THROW(par.run_until(kMillisecond), std::logic_error);
}

TEST(ParSimTest, CancelAcrossPartitionInTimeStopsTheEvent) {
  ParSimConfig cfg;
  cfg.lanes = 3;
  cfg.threads = 4;
  cfg.lookahead = kLook;
  ParSim par(cfg);
  bool fired = false;
  CrossEventId id;
  par.lane(0).schedule_at(10 * kMicrosecond, [&] {
    id = par.send(1, kMillisecond, "x.victim", [&] { fired = true; });
  });
  // Lane 2 cancels well before the victim's timestamp; both the send and
  // the cancel cross a partition boundary.
  par.lane(2).schedule_at(400 * kMicrosecond, [&] { par.cancel(id); });
  par.run_until(2 * kMillisecond);
  EXPECT_FALSE(fired);
}

TEST(ParSimTest, CancelArrivingAfterFireIsDeterministicNoop) {
  ParSimConfig cfg;
  cfg.lanes = 2;
  cfg.threads = 2;
  cfg.lookahead = kLook;
  ParSim par(cfg);
  bool fired = false;
  CrossEventId id;
  par.lane(0).schedule_at(10 * kMicrosecond, [&] {
    id = par.send(1, 10 * kMicrosecond + kLook + 5, "x.victim",
                  [&] { fired = true; });
  });
  // By the time this cancel reaches a barrier the victim has fired:
  // events inside the lookahead horizon cannot be recalled.
  par.lane(0).schedule_at(kMillisecond, [&] { par.cancel(id); });
  par.run_until(2 * kMillisecond);
  EXPECT_TRUE(fired);
}

TEST(ParSimTest, SameTimeCrossSendsApplyInSourceLaneTicketOrder) {
  ParSimConfig cfg;
  cfg.lanes = 3;
  cfg.threads = 4;
  cfg.lookahead = kLook;
  ParSim par(cfg);
  std::vector<int> order;
  const Time at = kMillisecond;
  // Two lanes target lane 2 at the identical timestamp: the canonical
  // merge applies (at, src_lane, ticket) order, so lane 0's sends land
  // before lane 1's, and a lane's own sends keep ticket order.
  par.lane(1).schedule_at(10 * kMicrosecond, [&] {
    par.send(2, at, "x.b1", [&] { order.push_back(10); });
    par.send(2, at, "x.b2", [&] { order.push_back(11); });
  });
  par.lane(0).schedule_at(20 * kMicrosecond, [&] {
    par.send(2, at, "x.a1", [&] { order.push_back(0); });
  });
  par.run_until(2 * kMillisecond);
  EXPECT_EQ(order, (std::vector<int>{0, 10, 11}));
}

TEST(ParSimTest, RandomizedWorkloadBitIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {7ull, 42ull, 9001ull}) {
    for (const int lanes : {2, 3, 5}) {
      const Transcript ref = run_workload(lanes, 1, seed);
      for (const int threads : {2, 4, 8}) {
        const Transcript got = run_workload(lanes, threads, seed);
        EXPECT_TRUE(ref == got)
            << "lanes=" << lanes << " threads=" << threads << " seed=" << seed;
      }
    }
  }
}

TEST(ParSimTest, FallbackLookaheadStillBitIdentical) {
  // A lookahead below the parallel floor forces the inline schedule; the
  // transcript must still match a nominally-threaded run bit for bit.
  const std::uint64_t seed = 1234;
  const Transcript ref = run_workload(3, 1, seed);
  const Transcript got = run_workload(3, 8, seed);
  EXPECT_TRUE(ref == got);
}

TEST(ParSimTest, ChurnAndDropAccountingIsThreadCountInvariant) {
  // Tiny trace ring forces drops; the kWall churn counters
  // (prof.events_scheduled / cancelled / callable_heap_allocs) and
  // obs.trace.dropped_events must aggregate to the same totals whether
  // the lanes ran inline or across 4 workers.
  const Transcript serial = run_workload(4, 1, 77, /*trace_capacity=*/64);
  const Transcript threaded = run_workload(4, 4, 77, /*trace_capacity=*/64);
  EXPECT_GT(serial.trace_dropped, 0u) << "workload must overflow the ring";
  EXPECT_EQ(serial.trace_dropped, threaded.trace_dropped);
  EXPECT_EQ(serial.profile, threaded.profile);
  EXPECT_FALSE(serial.profile.empty());
}

TEST(ParSimTest, WindowAndEventTotalsAreStructural) {
  const Transcript a = run_workload(3, 1, 5);
  const Transcript b = run_workload(3, 4, 5);
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_GT(a.windows, 0u);
  EXPECT_GT(a.executed, 0u);
}

TEST(ParSimTest, MergedMetricsIncludeParsimCounters) {
  obs::MetricsRegistry reg;
  obs::ScopedObs scope(nullptr, &reg);
  {
    ParSimConfig cfg;
    cfg.lanes = 2;
    cfg.threads = 2;
    cfg.lookahead = kLook;
    ParSim par(cfg);
    par.lane(0).schedule_at(10 * kMicrosecond, [] {});
    par.run_until(kMillisecond);
    par.finish();
  }
  double windows = -1;
  for (const auto& s : reg.snapshot(obs::MetricClock::kSim)) {
    if (s.name == "sim.parsim.windows") windows = s.value;
  }
  EXPECT_GE(windows, 1.0);
}

TEST(ParSimTest, CurrentLaneTracksScope) {
  EXPECT_EQ(current_lane(), kNoLane);
  ParSimConfig cfg;
  cfg.lanes = 2;
  cfg.threads = 2;
  cfg.lookahead = kLook;
  ParSim par(cfg);
  int in_lane = kNoLane;
  int in_with_lane = kNoLane;
  int in_control = kNoLane;
  par.with_lane(1, [&] { in_with_lane = current_lane(); });
  par.lane(0).schedule_at(10 * kMicrosecond, [&] { in_lane = current_lane(); });
  par.control().schedule_at(20 * kMicrosecond,
                            [&] { in_control = current_lane(); });
  par.run_until(kMillisecond);
  EXPECT_EQ(in_with_lane, 1);
  EXPECT_EQ(in_lane, 0);
  EXPECT_EQ(in_control, kControlLane);
  EXPECT_EQ(current_lane(), kNoLane);
}

TEST(ParSimTest, LaneExceptionsRethrowDeterministically) {
  // Both lanes fail in the same window; the lowest lane index wins no
  // matter which worker thread finished first.
  for (int attempt = 0; attempt < 4; ++attempt) {
    ParSimConfig cfg;
    cfg.lanes = 2;
    cfg.threads = 2;
    cfg.lookahead = kLook;
    ParSim par(cfg);
    par.lane(0).schedule_at(10 * kMicrosecond,
                            [] { throw std::runtime_error("lane0"); });
    par.lane(1).schedule_at(10 * kMicrosecond,
                            [] { throw std::runtime_error("lane1"); });
    try {
      par.run_until(kMillisecond);
      FAIL() << "expected a lane exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "lane0");
    }
  }
}

}  // namespace
}  // namespace fiveg::sim
