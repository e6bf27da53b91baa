// Tests for the observability subsystem: metrics registry semantics, the
// ring-buffered tracer (wraparound, span nesting, clock ownership), the
// Chrome trace_event exporter (escaping, structure — validated by parsing
// the output back), the thread-local scope, and the Simulator's profiling
// hooks including trace determinism across identical runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/codec.h"
#include "obs/digest.h"
#include "obs/json_check.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace fiveg::obs {
namespace {

// --- MetricsRegistry ---

TEST(MetricsTest, CounterAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&reg.counter("x"), &c);  // same handle on re-lookup
}

TEST(MetricsTest, GaugeTracksValueAndHighWater) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("depth");
  g.set(3.0);
  g.set(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  EXPECT_DOUBLE_EQ(g.max(), 3.0);
  g.update_max(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);  // update_max leaves the value alone
  EXPECT_DOUBLE_EQ(g.max(), 10.0);
}

TEST(MetricsTest, SnapshotSplitsByClockAndSorts) {
  MetricsRegistry reg;
  reg.counter("b.sim").add(2);
  reg.counter("a.sim").add(1);
  reg.digest("c.wall", MetricClock::kWall).observe(7.0);
  reg.gauge("d.sim").set(9.0);

  const std::vector<MetricSnapshot> sim = reg.snapshot(MetricClock::kSim);
  ASSERT_EQ(sim.size(), 3u);
  EXPECT_EQ(sim[0].name, "a.sim");
  EXPECT_EQ(sim[1].name, "b.sim");
  EXPECT_EQ(sim[2].name, "d.sim");
  EXPECT_EQ(sim[0].kind, MetricSnapshot::Kind::kCounter);
  EXPECT_DOUBLE_EQ(sim[1].value, 2.0);
  EXPECT_EQ(sim[2].kind, MetricSnapshot::Kind::kGauge);

  const std::vector<MetricSnapshot> wall = reg.snapshot(MetricClock::kWall);
  ASSERT_EQ(wall.size(), 1u);
  EXPECT_EQ(wall[0].name, "c.wall");
  EXPECT_EQ(wall[0].count, 1u);
}

TEST(MetricsTest, ClockDomainIsFixedByFirstUse) {
  MetricsRegistry reg;
  reg.counter("x", MetricClock::kWall).add();
  reg.counter("x", MetricClock::kSim).add();  // clock arg ignored: same slot
  EXPECT_EQ(reg.snapshot(MetricClock::kWall).size(), 1u);
  EXPECT_EQ(reg.snapshot(MetricClock::kSim).size(), 0u);
  EXPECT_EQ(reg.counter("x").value(), 2u);
}

// --- Digest (DDSketch-style quantile sketch) ---

TEST(DigestTest, QuantilesWithinRelativeErrorBound) {
  Digest d;
  // Uniform 1..10000: the true q-quantile (rank convention
  // floor(q*(n-1))) is 1 + floor(q*9999).
  for (int i = 1; i <= 10000; ++i) d.observe(static_cast<double>(i));
  EXPECT_EQ(d.count(), 10000u);
  for (double q : {0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99}) {
    const double truth = 1.0 + std::floor(q * 9999.0);
    const double got = d.quantile(q);
    EXPECT_LE(std::abs(got - truth), Digest::kAlpha * truth + 1e-9)
        << "q=" << q << " got=" << got << " truth=" << truth;
  }
  // Endpoints clamp to the exact extremes, not bucket midpoints.
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 10000.0);
}

TEST(DigestTest, HandlesNegativeZeroAndNan) {
  Digest d;
  d.observe(-50.0);
  d.observe(-100.0);
  d.observe(0.0);
  d.observe(1e-15);  // below kZeroEpsilon: zero bucket
  d.observe(25.0);
  d.observe(std::numeric_limits<double>::quiet_NaN());  // ignored
  EXPECT_EQ(d.count(), 5u);
  EXPECT_EQ(d.zero_count(), 2u);
  EXPECT_EQ(d.negative_bins().size(), 2u);
  EXPECT_EQ(d.positive_bins().size(), 1u);
  EXPECT_DOUBLE_EQ(d.min(), -100.0);
  EXPECT_DOUBLE_EQ(d.max(), 25.0);
  // Ordering across sign: q=0 hits the most negative value, the median
  // lands in the zero bucket, high quantiles reach the positive side.
  EXPECT_DOUBLE_EQ(d.quantile(0.0), -100.0);
  EXPECT_LE(std::abs(d.quantile(0.25) - (-50.0)), 0.5 + 1e-9);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 0.0);
  EXPECT_LE(std::abs(d.quantile(1.0) - 25.0), 1e-9);
}

TEST(DigestTest, WeightedObservationCountsAsRepeats) {
  // observe(v, w) is w observations of v: same buckets, count and extremes;
  // the sum is v * w (one multiply, so it may differ from w additions in
  // the last bit, which is why the sum is compared with a tolerance).
  Digest weighted;
  Digest repeated;
  const std::pair<double, std::uint64_t> samples[] = {
      {3.5, 7}, {0.0, 2}, {-1.25, 3}, {120.0, 1}, {9.0, 0}};
  for (const auto& [v, w] : samples) {
    weighted.observe(v, w);
    for (std::uint64_t i = 0; i < w; ++i) repeated.observe(v);
  }
  EXPECT_EQ(weighted.count(), 13u);
  EXPECT_EQ(weighted.count(), repeated.count());
  EXPECT_EQ(weighted.zero_count(), repeated.zero_count());
  EXPECT_EQ(weighted.positive_bins(), repeated.positive_bins());
  EXPECT_EQ(weighted.negative_bins(), repeated.negative_bins());
  EXPECT_EQ(weighted.min(), -1.25);
  EXPECT_EQ(weighted.max(), 120.0);  // the weight-0 sample left no trace
  EXPECT_DOUBLE_EQ(weighted.sum(), 3.5 * 7 - 1.25 * 3 + 120.0);
  EXPECT_EQ(weighted.quantile(0.5), repeated.quantile(0.5));
}

TEST(DigestTest, EmptyDigestIsZeroed) {
  const Digest d;
  EXPECT_EQ(d.count(), 0u);
  EXPECT_DOUBLE_EQ(d.min(), 0.0);
  EXPECT_DOUBLE_EQ(d.max(), 0.0);
  EXPECT_DOUBLE_EQ(d.mean(), 0.0);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 0.0);
}

TEST(DigestTest, InsertionOrderDoesNotChangeState) {
  std::vector<double> values;
  for (int i = 0; i < 500; ++i)
    values.push_back(std::pow(1.13, static_cast<double>(i % 67)) -
                     (i % 3 == 0 ? 30.0 : 0.0));
  Digest forward;
  for (double v : values) forward.observe(v);
  Digest backward;
  for (auto it = values.rbegin(); it != values.rend(); ++it)
    backward.observe(*it);
  EXPECT_EQ(forward.positive_bins(), backward.positive_bins());
  EXPECT_EQ(forward.negative_bins(), backward.negative_bins());
  EXPECT_EQ(forward.zero_count(), backward.zero_count());
  EXPECT_DOUBLE_EQ(forward.sum(), backward.sum());
}

TEST(DigestTest, MergeMatchesSingleStreamExactly) {
  Digest a;
  Digest b;
  Digest whole;
  for (int i = 0; i < 1000; ++i) {
    const double v = 0.1 * static_cast<double>(i) - 20.0;
    (i % 2 == 0 ? a : b).observe(v);
    whole.observe(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.positive_bins(), whole.positive_bins());
  EXPECT_EQ(a.negative_bins(), whole.negative_bins());
  EXPECT_EQ(a.zero_count(), whole.zero_count());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
  for (double q : {0.0, 0.1, 0.5, 0.9, 1.0})
    EXPECT_DOUBLE_EQ(a.quantile(q), whole.quantile(q));
}

TEST(MetricsTest, DigestSnapshotCarriesPercentilesAndBins) {
  MetricsRegistry reg;
  Digest& d = reg.digest("lat_ms");
  for (int i = 1; i <= 100; ++i) d.observe(static_cast<double>(i));
  const auto snaps = reg.snapshot(MetricClock::kSim);
  ASSERT_EQ(snaps.size(), 1u);
  const MetricSnapshot& s = snaps[0];
  EXPECT_EQ(s.kind, MetricSnapshot::Kind::kDigest);
  EXPECT_EQ(s.count, 100u);
  EXPECT_LE(std::abs(s.p50 - 50.0), Digest::kAlpha * 50.0 + 1.0);
  EXPECT_LE(std::abs(s.p95 - 95.0), Digest::kAlpha * 95.0 + 1.0);
  EXPECT_FALSE(s.bins.empty());
}

TEST(MetricsTest, LabeledNamesAreCanonical) {
  // Keys are sorted, so label order at the call site cannot fork series.
  EXPECT_EQ(labeled("x", {{"b", "2"}, {"a", "1"}}), "x{a=1,b=2}");
  EXPECT_EQ(labeled("x", {}), "x");
  MetricsRegistry reg;
  reg.counter("hits", {{"rat", "nr"}}).add();
  reg.counter(labeled("hits", {{"rat", "nr"}})).add();
  EXPECT_EQ(reg.counter("hits{rat=nr}").value(), 2u);
}

// --- Tracer ring buffer ---

TEST(TracerTest, RingKeepsMostRecentAndCountsDrops) {
  Tracer t(4);
  for (int i = 0; i < 10; ++i) {
    t.instant(i, "e" + std::to_string(i), "cat");
  }
  EXPECT_EQ(t.capacity(), 4u);
  EXPECT_EQ(t.buffered(), 4u);
  EXPECT_EQ(t.emitted(), 10u);
  EXPECT_EQ(t.dropped(), 6u);
  const std::vector<TraceEvent> events = t.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and the survivors are exactly the last four emissions.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<size_t>(i)].name,
              "e" + std::to_string(i + 6));
    EXPECT_EQ(events[static_cast<size_t>(i)].at, i + 6);
  }
}

TEST(TracerTest, NoDropsBelowCapacity) {
  Tracer t(8);
  t.instant(1, "a", "c");
  t.instant(2, "b", "c");
  EXPECT_EQ(t.buffered(), 2u);
  EXPECT_EQ(t.dropped(), 0u);
  const std::vector<TraceEvent> events = t.snapshot();
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
}

// --- Chrome exporter + parse-back validation ---

TEST(ChromeTraceTest, EscapesHostileStringsAndParsesBack) {
  Tracer t;
  t.instant(1000, "quote\" backslash\\ control\x01\n", "c\"at",
            {{"key \"k\"", "value\twith\\escapes"}});
  t.begin(2000, "span", "c\"at");
  t.end(3000, "span", "c\"at");
  t.counter(4000, "track", "c\"at", 1.5);

  std::ostringstream os;
  write_chrome_trace(t, os);
  const std::string doc = os.str();

  std::string err;
  EXPECT_TRUE(json_valid(doc, &err)) << err << "\n" << doc;

  const TraceCheck check = check_chrome_trace(doc);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.event_count, 4u);
  ASSERT_EQ(check.categories.size(), 1u);
  EXPECT_EQ(check.categories[0], "c\"at");
}

TEST(ChromeTraceTest, StructureMatchesTraceEventFormat) {
  Tracer t;
  t.begin(1'000'000, "work", "sim");   // 1 ms simulated
  t.end(2'000'000, "work", "sim");
  t.instant(1'500'000, "tick", "ran");

  std::ostringstream os;
  write_chrome_trace(t, os);
  const std::unique_ptr<JsonValue> doc = json_parse(os.str());
  ASSERT_NE(doc, nullptr);
  const JsonValue* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is(JsonValue::Type::kArray));

  int begins = 0, ends = 0, instants = 0, meta = 0;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.get("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") {
      ++meta;
      continue;
    }
    const JsonValue* ts = e.get("ts");
    ASSERT_NE(ts, nullptr);
    if (ph->string == "B") {
      ++begins;
      EXPECT_DOUBLE_EQ(ts->number, 1000.0);  // ns -> us
    } else if (ph->string == "E") {
      ++ends;
    } else if (ph->string == "i") {
      ++instants;
      // Instants carry the scope field Perfetto expects.
      const JsonValue* s = e.get("s");
      ASSERT_NE(s, nullptr);
      EXPECT_EQ(s->string, "t");
    }
  }
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
  EXPECT_EQ(instants, 1);
  EXPECT_GE(meta, 3);  // process_name + two thread_name records
}

TEST(ChromeTraceTest, MultiProcessMergeNamesProcesses) {
  Tracer a, b;
  a.instant(1, "x", "sim");
  b.instant(2, "y", "tcp");

  std::vector<ChromeProcess> procs;
  procs.push_back({"exp_a", &a, 1.0});
  procs.push_back({"exp_b", &b, 2.0});
  std::ostringstream os;
  write_chrome_trace(procs, os);

  const TraceCheck check = check_chrome_trace(os.str());
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.event_count, 2u);
  ASSERT_EQ(check.processes.size(), 2u);
  EXPECT_EQ(check.processes[0], "exp_a");
  EXPECT_EQ(check.processes[1], "exp_b");
}

TEST(ChromeTraceTest, NoTimingOutputIsByteStable) {
  // Two identical tracers must export byte-identically with include_wall
  // off, even when the wall_ms side data differs.
  const auto make = [](Tracer& t) {
    t.begin(10, "s", "sim");
    t.instant(20, "i", "ran", {{"k", "v"}});
    t.end(30, "s", "sim");
  };
  Tracer a, b;
  make(a);
  make(b);
  ChromeTraceOptions no_wall;
  no_wall.include_wall = false;
  std::ostringstream osa, osb;
  write_chrome_trace({{"e", &a, 123.0}}, osa, no_wall);
  write_chrome_trace({{"e", &b, 456.0}}, osb, no_wall);
  EXPECT_EQ(osa.str(), osb.str());
  EXPECT_EQ(osa.str().find("wall_ms"), std::string::npos);
}

// --- JSON checker itself ---

TEST(JsonCheckTest, AcceptsValidRejectsInvalid) {
  EXPECT_TRUE(json_valid(R"({"a": [1, 2.5, -3e4], "b": "xé", "c": null})"));
  EXPECT_TRUE(json_valid(R"("😀")"));  // surrogate pair
  std::string err;
  EXPECT_FALSE(json_valid(R"({"a": 01})", &err));     // leading zero
  EXPECT_FALSE(json_valid(R"({"a": 1,})", &err));     // trailing comma
  EXPECT_FALSE(json_valid("{\"a\": \"\x01\"}", &err));  // raw control char
  EXPECT_FALSE(json_valid(R"({"a": 1} extra)", &err));  // trailing data
  EXPECT_FALSE(json_valid(R"({"a")", &err));          // truncated
}

TEST(JsonCheckTest, RejectsDuplicateMemberNames) {
  std::string err;
  EXPECT_EQ(json_parse(R"({"a":1,"a":2})", &err), nullptr);
  EXPECT_EQ(err, "duplicate key \"a\" at byte 7");
  // Per object: the same name in sibling or nested objects is fine.
  EXPECT_TRUE(json_valid(R"({"a": {"a": 1}, "b": [{"a": 1}, {"a": 2}]})"));
  EXPECT_FALSE(json_valid(R"({"x": {"a": 1, "b": 2, "a": 3}})", &err));
}

TEST(JsonCheckTest, TraceCheckRejectsMissingFields) {
  EXPECT_FALSE(check_chrome_trace(R"({"notTraceEvents": []})").ok);
  EXPECT_FALSE(check_chrome_trace(R"({"traceEvents": [{"name": "x"}]})").ok);
  const TraceCheck ok = check_chrome_trace(
      R"({"traceEvents": [{"name": "x", "ph": "i", "ts": 1, "pid": 0,)"
      R"( "tid": 1, "cat": "sim", "s": "t"}]})");
  EXPECT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.event_count, 1u);
}

TEST(JsonCheckTest, TraceCheckRejectsNonMonotonicCounterTrack) {
  // Second sample on the same (pid, tid, name) counter track steps back in
  // time — Perfetto would silently reorder or drop it.
  const TraceCheck broken = check_chrome_trace(
      R"({"traceEvents": [)"
      R"({"name": "cwnd", "ph": "C", "ts": 10, "pid": 0, "tid": 1,)"
      R"( "cat": "tcp", "args": {"value": 1.0}},)"
      R"({"name": "cwnd", "ph": "C", "ts": 5, "pid": 0, "tid": 1,)"
      R"( "cat": "tcp", "args": {"value": 2.0}}]})");
  EXPECT_FALSE(broken.ok);
  EXPECT_NE(broken.error.find("not time-monotonic"), std::string::npos)
      << broken.error;

  // Same timestamps on DIFFERENT tracks (distinct name / tid) are fine, as
  // are repeated timestamps on one track.
  const TraceCheck ok = check_chrome_trace(
      R"({"traceEvents": [)"
      R"({"name": "cwnd", "ph": "C", "ts": 10, "pid": 0, "tid": 1,)"
      R"( "cat": "tcp", "args": {"value": 1.0}},)"
      R"({"name": "rtt", "ph": "C", "ts": 5, "pid": 0, "tid": 1,)"
      R"( "cat": "tcp", "args": {"value": 2.0}},)"
      R"({"name": "cwnd", "ph": "C", "ts": 5, "pid": 0, "tid": 2,)"
      R"( "cat": "tcp", "args": {"value": 3.0}},)"
      R"({"name": "cwnd", "ph": "C", "ts": 10, "pid": 0, "tid": 1,)"
      R"( "cat": "tcp", "args": {"value": 4.0}}]})");
  EXPECT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.event_count, 4u);
}

TEST(JsonCheckTest, TraceCheckRejectsDuplicateMetadata) {
  const TraceCheck dup_proc = check_chrome_trace(
      R"({"traceEvents": [)"
      R"({"name": "process_name", "ph": "M", "pid": 7,)"
      R"( "args": {"name": "exp_a"}},)"
      R"({"name": "process_name", "ph": "M", "pid": 7,)"
      R"( "args": {"name": "exp_b"}}]})");
  EXPECT_FALSE(dup_proc.ok);
  EXPECT_NE(dup_proc.error.find("duplicate process_name"), std::string::npos)
      << dup_proc.error;

  const TraceCheck dup_thread = check_chrome_trace(
      R"({"traceEvents": [)"
      R"({"name": "thread_name", "ph": "M", "pid": 7, "tid": 1,)"
      R"( "args": {"name": "sim"}},)"
      R"({"name": "thread_name", "ph": "M", "pid": 7, "tid": 1,)"
      R"( "args": {"name": "ran"}}]})");
  EXPECT_FALSE(dup_thread.ok);
  EXPECT_NE(dup_thread.error.find("duplicate thread_name"), std::string::npos)
      << dup_thread.error;

  // Same tid under different pids is two distinct threads.
  const TraceCheck ok = check_chrome_trace(
      R"({"traceEvents": [)"
      R"({"name": "thread_name", "ph": "M", "pid": 7, "tid": 1,)"
      R"( "args": {"name": "sim"}},)"
      R"({"name": "thread_name", "ph": "M", "pid": 8, "tid": 1,)"
      R"( "args": {"name": "sim"}}]})");
  EXPECT_TRUE(ok.ok) << ok.error;
}

// --- Thread-local scope ---

TEST(ScopedObsTest, InstallsAndRestoresNested) {
  EXPECT_EQ(tracer(), nullptr);
  EXPECT_EQ(metrics(), nullptr);
  Tracer t1, t2;
  MetricsRegistry m1;
  {
    const ScopedObs outer(&t1, &m1);
    EXPECT_EQ(tracer(), &t1);
    EXPECT_EQ(metrics(), &m1);
    {
      const ScopedObs inner(&t2, nullptr);
      EXPECT_EQ(tracer(), &t2);
      EXPECT_EQ(metrics(), nullptr);
    }
    EXPECT_EQ(tracer(), &t1);
    EXPECT_EQ(metrics(), &m1);
  }
  EXPECT_EQ(tracer(), nullptr);
  EXPECT_EQ(metrics(), nullptr);
}

// --- Simulator profiling hooks ---

TEST(SimulatorObsTest, CountsEventsPerLabelAndTracksDepth) {
  MetricsRegistry reg;
  Tracer trace;
  const ScopedObs scope(&trace, &reg);

  sim::Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_in(i, "test.tick", [] {});
  s.schedule_in(10, [] {});  // unlabelled
  s.run();

  EXPECT_EQ(reg.counter("sim.events").value(), 6u);
  EXPECT_EQ(reg.counter("sim.events.test.tick").value(), 5u);
  EXPECT_EQ(reg.counter("sim.events.(unlabeled)").value(), 1u);
  EXPECT_EQ(s.queue_depth_high_water(), 6u);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.queue_depth_hwm").max(), 6.0);
  // Wall-clock timing landed in the kWall domain, not the kSim counters.
  bool saw_wall_hist = false;
  for (const MetricSnapshot& m : reg.snapshot(MetricClock::kWall)) {
    saw_wall_hist |= m.name == "sim.callback_wall_us.test.tick";
  }
  EXPECT_TRUE(saw_wall_hist);
  for (const MetricSnapshot& m : reg.snapshot(MetricClock::kSim)) {
    EXPECT_EQ(m.name.find("wall"), std::string::npos) << m.name;
  }

  // Labelled events appear as instants on the sim track.
  int label_instants = 0;
  trace.for_each([&](const TraceEvent& e) {
    label_instants += (e.phase == TraceEvent::Phase::kInstant &&
                       e.name == "test.tick");
  });
  EXPECT_EQ(label_instants, 5);
}

TEST(SimulatorObsTest, IdenticalRunsYieldIdenticalTraces) {
  const auto run_once = [](std::string* out) {
    Tracer trace;
    MetricsRegistry reg;
    const ScopedObs scope(&trace, &reg);
    sim::Simulator s;
    // A little self-rescheduling workload with spans and counters.
    int remaining = 50;
    std::function<void()> tick = [&] {
      trace.instant(s.now(), "tick", "sim");
      trace.counter(s.now(), "remaining", "sim",
                    static_cast<double>(remaining));
      if (--remaining > 0) s.schedule_in(100, "loop", tick);
    };
    s.schedule_in(0, "loop", tick);
    s.run();
    ChromeTraceOptions no_wall;
    no_wall.include_wall = false;
    std::ostringstream os;
    write_chrome_trace({{"det", &trace, 0.0}}, os, no_wall);
    *out = os.str();
  };
  std::string first, second;
  run_once(&first);
  run_once(&second);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"traceEvents\""), std::string::npos);
}

// --- binary codec (obs/codec.h) ---

// Serializes a digest through the store codec, no dictionary involved.
std::string digest_bytes(const Digest& d) {
  std::string out;
  codec::encode_digest(&out, d);
  return out;
}

Digest decode_digest_or_die(const std::string& bytes) {
  codec::Reader r(bytes);
  Digest d;
  EXPECT_TRUE(codec::decode_digest(&r, &d));
  EXPECT_TRUE(r.done());
  return d;
}

TEST(CodecTest, PrimitiveRoundTrips) {
  std::string buf;
  codec::put_varint(&buf, 0);
  codec::put_varint(&buf, 127);
  codec::put_varint(&buf, 128);
  codec::put_varint(&buf, std::numeric_limits<std::uint64_t>::max());
  codec::put_svarint(&buf, 0);
  codec::put_svarint(&buf, -1);
  codec::put_svarint(&buf, std::numeric_limits<std::int64_t>::min());
  codec::put_f64(&buf, -0.0);
  codec::put_f64(&buf, std::numeric_limits<double>::quiet_NaN());
  codec::put_string(&buf, "hello");
  codec::put_string(&buf, std::string("a\0b", 3));  // embedded NUL

  codec::Reader r(buf);
  std::uint64_t u = 1;
  std::int64_t s = 1;
  double f = 0;
  std::string str;
  EXPECT_TRUE(r.get_varint(&u));
  EXPECT_EQ(u, 0u);
  EXPECT_TRUE(r.get_varint(&u));
  EXPECT_EQ(u, 127u);
  EXPECT_TRUE(r.get_varint(&u));
  EXPECT_EQ(u, 128u);
  EXPECT_TRUE(r.get_varint(&u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(r.get_svarint(&s));
  EXPECT_EQ(s, 0);
  EXPECT_TRUE(r.get_svarint(&s));
  EXPECT_EQ(s, -1);
  EXPECT_TRUE(r.get_svarint(&s));
  EXPECT_EQ(s, std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(r.get_f64(&f));
  EXPECT_TRUE(std::signbit(f));  // -0.0 keeps its sign bit
  EXPECT_TRUE(r.get_f64(&f));
  EXPECT_TRUE(std::isnan(f));
  EXPECT_TRUE(r.get_string(&str));
  EXPECT_EQ(str, "hello");
  EXPECT_TRUE(r.get_string(&str));
  EXPECT_EQ(str, std::string("a\0b", 3));
  EXPECT_TRUE(r.done());
}

TEST(CodecTest, ReaderPoisonsOnTruncationAndOverflow) {
  std::string buf;
  codec::put_varint(&buf, 1u << 20);
  buf.resize(buf.size() - 1);  // truncate mid-varint
  codec::Reader r(buf);
  std::uint64_t u = 0;
  EXPECT_FALSE(r.get_varint(&u));
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.get_varint(&u));  // stays poisoned

  // A 10-byte varint encoding more than 64 bits is non-canonical.
  const std::string over(10, '\xff');
  codec::Reader r2(over);
  EXPECT_FALSE(r2.get_varint(&u));
  EXPECT_FALSE(r2.ok());
}

TEST(CodecTest, DigestEncodeDecodeEncodeIsFixedPoint) {
  sim::Rng rng(20260808);
  Digest original;
  for (int i = 0; i < 5000; ++i) {
    // Mixed regimes: positive heavy tail, negatives, exact zeros and
    // sub-epsilon values that collapse into the zero bucket.
    switch (rng.uniform_int(0, 3)) {
      case 0:
        original.observe(rng.lognormal(2.0, 1.5));
        break;
      case 1:
        original.observe(-rng.exponential(0.1));
        break;
      case 2:
        original.observe(0.0);
        break;
      default:
        original.observe(rng.uniform(-1e-13, 1e-13));
        break;
    }
  }
  const std::string once = digest_bytes(original);
  const Digest decoded = decode_digest_or_die(once);
  // encode(decode(x)) == encode(x) byte-for-byte...
  EXPECT_EQ(digest_bytes(decoded), once);
  // ...and every derived statistic matches bit-for-bit.
  EXPECT_EQ(decoded.count(), original.count());
  EXPECT_EQ(decoded.sum(), original.sum());
  EXPECT_EQ(decoded.min(), original.min());
  EXPECT_EQ(decoded.max(), original.max());
  for (const double q : {0.0, 0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(decoded.quantile(q), original.quantile(q)) << "q=" << q;
  }
}

TEST(CodecTest, DigestEmptySingleSampleAndNegativeOnly) {
  const Digest empty;
  const Digest empty2 = decode_digest_or_die(digest_bytes(empty));
  EXPECT_EQ(empty2.count(), 0u);
  EXPECT_EQ(digest_bytes(empty2), digest_bytes(empty));

  Digest single;
  single.observe(-273.15);
  const Digest single2 = decode_digest_or_die(digest_bytes(single));
  EXPECT_EQ(single2.count(), 1u);
  EXPECT_EQ(single2.min(), single.min());
  EXPECT_EQ(single2.quantile(0.5), single.quantile(0.5));

  Digest negatives;  // exercises the neg_bins column alone
  for (int i = 1; i <= 100; ++i) negatives.observe(-static_cast<double>(i));
  const Digest negatives2 = decode_digest_or_die(digest_bytes(negatives));
  EXPECT_EQ(digest_bytes(negatives2), digest_bytes(negatives));
  EXPECT_EQ(negatives2.quantile(0.9), negatives.quantile(0.9));
}

TEST(CodecTest, MergedDecodedDigestsMatchMergedOriginals) {
  sim::Rng rng(7);
  Digest a;
  Digest b;
  for (int i = 0; i < 2000; ++i) {
    a.observe(rng.normal(10.0, 3.0));
    b.observe(-rng.lognormal(0.0, 2.0));
  }
  Digest merged_originals = a;  // merge order fixed: a then b
  merged_originals.merge(b);

  Digest merged_decoded = decode_digest_or_die(digest_bytes(a));
  merged_decoded.merge(decode_digest_or_die(digest_bytes(b)));

  EXPECT_EQ(digest_bytes(merged_decoded), digest_bytes(merged_originals));
  EXPECT_EQ(merged_decoded.sum(), merged_originals.sum());
  for (const double q : {0.05, 0.5, 0.95}) {
    EXPECT_EQ(merged_decoded.quantile(q), merged_originals.quantile(q));
  }
}

TEST(CodecTest, DigestDecodeRejectsZeroCountBin) {
  // A live digest never exports a zero-count bin; rejecting it on decode
  // keeps encode∘decode a fixed point. Craft the malformed payload by
  // hand: zero=0, sum/min/max, one positive bin (key 3, count 0).
  std::string buf;
  codec::put_varint(&buf, 0);    // zero_count
  codec::put_f64(&buf, 1.0);     // sum
  codec::put_f64(&buf, 1.0);     // min
  codec::put_f64(&buf, 1.0);     // max
  codec::put_varint(&buf, 1);    // one positive bin
  codec::put_svarint(&buf, 3);   // key
  codec::put_varint(&buf, 0);    // count 0 — invalid
  codec::put_varint(&buf, 0);    // no negative bins
  codec::Reader r(buf);
  Digest d;
  EXPECT_FALSE(codec::decode_digest(&r, &d));
}

// The digest's flat bucket arrays against the std::map layout they
// replaced, kept here as the reference: same bins, same quantiles, same
// codec bytes, through observe, merge and restore.
struct MapDigest {
  std::map<std::int32_t, std::uint64_t> pos;
  std::map<std::int32_t, std::uint64_t> neg;
  std::uint64_t zero = 0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void observe(double v) {
    if (std::isnan(v)) return;
    ++count;
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
    const double mag = std::abs(v);
    if (mag < Digest::kZeroEpsilon) {
      ++zero;
    } else {
      ++(v > 0.0 ? pos : neg)[Digest::bucket_key(mag)];
    }
  }

  void merge(const MapDigest& o) {
    if (o.count == 0) return;
    count += o.count;
    zero += o.zero;
    sum += o.sum;
    min = std::min(min, o.min);
    max = std::max(max, o.max);
    for (const auto& [k, c] : o.pos) pos[k] += c;
    for (const auto& [k, c] : o.neg) neg[k] += c;
  }

  [[nodiscard]] double quantile(double q) const {
    if (count == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    if (q <= 0.0) return min;
    if (q >= 1.0) return max;
    const auto rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count - 1));
    std::uint64_t seen = 0;
    for (auto it = neg.rbegin(); it != neg.rend(); ++it) {
      seen += it->second;
      if (seen > rank) {
        return std::clamp(-Digest::bucket_value(it->first), min, max);
      }
    }
    seen += zero;
    if (seen > rank) return std::clamp(0.0, min, max);
    for (const auto& [k, c] : pos) {
      seen += c;
      if (seen > rank) return std::clamp(Digest::bucket_value(k), min, max);
    }
    return max;
  }

  [[nodiscard]] static Bins bins(
      const std::map<std::int32_t, std::uint64_t>& m) {
    return {m.begin(), m.end()};
  }

  // The codec's digest layout, written out field by field.
  [[nodiscard]] std::string bytes() const {
    std::string out;
    codec::put_varint(&out, zero);
    codec::put_f64(&out, count > 0 ? sum : 0.0);
    codec::put_f64(&out, count > 0 ? min : 0.0);
    codec::put_f64(&out, count > 0 ? max : 0.0);
    for (const auto* m : {&pos, &neg}) {
      codec::put_varint(&out, m->size());
      for (const auto& [k, c] : *m) {
        codec::put_svarint(&out, k);
        codec::put_varint(&out, c);
      }
    }
    return out;
  }
};

// Seeded multisets mixing every regime the bucket arrays must handle:
// wide positive and negative tails, zeros and sub-epsilon values, NaN,
// infinities (whose keys clamp at +-kMaxKey), and runs sorted descending
// so keys keep arriving below the touched range.
std::vector<double> digest_property_values(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> v;
  const int n = static_cast<int>(rng.uniform_int(1, 400));
  for (int i = 0; i < n; ++i) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    switch (rng.uniform_int(0, 7)) {
      case 0:
        v.push_back(rng.lognormal(0.0, 6.0));
        break;
      case 1:
        v.push_back(-rng.lognormal(1.0, 4.0));
        break;
      case 2:
        v.push_back(rng.bernoulli(0.5) ? 0.0 : -0.0);
        break;
      case 3:
        v.push_back(rng.uniform(-1e-13, 1e-13));
        break;
      case 4:
        v.push_back(std::numeric_limits<double>::quiet_NaN());
        break;
      case 5:
        v.push_back(rng.bernoulli(0.5) ? kInf : -kInf);
        break;
      default:
        v.push_back(rng.uniform(-120.0, 40.0));
        break;
    }
  }
  if (rng.bernoulli(0.5)) {
    std::sort(v.begin(), v.end(), [](double a, double b) { return a > b; });
  }
  return v;
}

void expect_digest_matches(const Digest& d, const MapDigest& ref) {
  EXPECT_EQ(d.count(), ref.count);
  EXPECT_EQ(d.zero_count(), ref.zero);
  EXPECT_EQ(d.positive_bins(), MapDigest::bins(ref.pos));
  EXPECT_EQ(d.negative_bins(), MapDigest::bins(ref.neg));
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    const double got = d.quantile(q);
    const double want = ref.quantile(q);
    // Bitwise, so NaN sums and signed zeros compare too.
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << "q=" << q << " got=" << got << " want=" << want;
  }
  EXPECT_EQ(digest_bytes(d), ref.bytes());
}

TEST(DigestTest, FlatBucketsMatchMapReference) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    Digest a;
    Digest b;
    MapDigest ra;
    MapDigest rb;
    for (const double v : digest_property_values(seed)) {
      a.observe(v);
      ra.observe(v);
    }
    for (const double v : digest_property_values(seed + 1000)) {
      b.observe(v);
      rb.observe(v);
    }
    expect_digest_matches(a, ra);
    expect_digest_matches(b, rb);

    a.merge(b);
    ra.merge(rb);
    expect_digest_matches(a, ra);

    const Bins pos = MapDigest::bins(ra.pos);
    const Bins neg = MapDigest::bins(ra.neg);
    const Digest restored =
        Digest::restore(ra.zero, ra.sum, ra.min, ra.max, pos, neg);
    expect_digest_matches(restored, ra);
    expect_digest_matches(decode_digest_or_die(ra.bytes()), ra);
  }
}

TEST(CodecTest, DigestDecodeRejectsKeyPastTheClamp) {
  // No live digest holds a key beyond +-kMaxKey, and accepting one would
  // size the bucket array by whatever the file claims.
  std::string buf;
  codec::put_varint(&buf, 0);  // zero_count
  codec::put_f64(&buf, 1.0);   // sum
  codec::put_f64(&buf, 1.0);   // min
  codec::put_f64(&buf, 1.0);   // max
  codec::put_varint(&buf, 1);  // one positive bin
  codec::put_svarint(&buf, Digest::kMaxKey + 1);
  codec::put_varint(&buf, 1);
  codec::put_varint(&buf, 0);  // no negative bins
  codec::Reader r(buf);
  Digest d;
  EXPECT_FALSE(codec::decode_digest(&r, &d));
}

TEST(CodecTest, SnapshotDecodeRejectsRetiredHistogramBlock) {
  // Between the gauge and digest blocks sits the count of the retired
  // log2-histogram block: 0 decodes, anything else is a record this build
  // cannot represent.
  const auto resolve = [](std::uint64_t, std::string*) { return true; };
  for (const std::uint64_t retired : {0u, 1u}) {
    std::string buf;
    codec::put_varint(&buf, 0);  // counters
    codec::put_varint(&buf, 0);  // gauges
    codec::put_varint(&buf, retired);
    codec::put_varint(&buf, 0);  // digests
    codec::Reader r(buf);
    std::vector<MetricSnapshot> out;
    EXPECT_EQ(codec::decode_snapshots(&r, MetricClock::kSim, resolve, &out),
              retired == 0);
  }
}

TEST(CodecTest, SnapshotSetRoundTripsThroughDictionary) {
  MetricsRegistry reg;
  reg.counter("pkts").add(12345);
  reg.counter("drops").add(1);
  reg.gauge("queue").set(3.5);
  reg.gauge("queue").set(1.0);  // max stays 3.5
  sim::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    reg.digest("lat_us").observe(rng.lognormal(3.0, 1.0));
    reg.digest("tput").observe(rng.normal(100.0, 25.0));
  }
  const std::vector<MetricSnapshot> snaps = reg.snapshot(MetricClock::kSim);
  ASSERT_FALSE(snaps.empty());

  // Self-contained dictionary: intern assigns ids in first-use order.
  std::vector<std::string> dict;
  const auto intern = [&dict](std::string_view s) -> std::uint64_t {
    for (std::size_t i = 0; i < dict.size(); ++i) {
      if (dict[i] == s) return i;
    }
    dict.emplace_back(s);
    return dict.size() - 1;
  };
  const auto resolve = [&dict](std::uint64_t id, std::string* out) {
    if (id >= dict.size()) return false;
    *out = dict[id];
    return true;
  };
  std::string bytes;
  codec::encode_snapshots(&bytes, snaps, intern);
  codec::Reader r(bytes);
  std::vector<MetricSnapshot> back;
  ASSERT_TRUE(codec::decode_snapshots(&r, MetricClock::kSim, resolve, &back));
  EXPECT_TRUE(r.done());

  ASSERT_EQ(back.size(), snaps.size());
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const MetricSnapshot& want = snaps[i];
    const MetricSnapshot& got = back[i];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.clock, want.clock);
    // Derived fields are recomputed on decode through the same
    // snapshot_of path — bit-for-bit, not approximately.
    EXPECT_EQ(got.value, want.value) << want.name;
    EXPECT_EQ(got.max, want.max) << want.name;
    EXPECT_EQ(got.count, want.count) << want.name;
    EXPECT_EQ(got.sum, want.sum) << want.name;
    EXPECT_EQ(got.min, want.min) << want.name;
    EXPECT_EQ(got.p05, want.p05) << want.name;
    EXPECT_EQ(got.p25, want.p25) << want.name;
    EXPECT_EQ(got.p50, want.p50) << want.name;
    EXPECT_EQ(got.p75, want.p75) << want.name;
    EXPECT_EQ(got.p90, want.p90) << want.name;
    EXPECT_EQ(got.p95, want.p95) << want.name;
    EXPECT_EQ(got.p99, want.p99) << want.name;
    EXPECT_EQ(got.bins, want.bins) << want.name;
    EXPECT_EQ(got.neg_bins, want.neg_bins) << want.name;
    EXPECT_EQ(got.zero_count, want.zero_count) << want.name;
  }
}

}  // namespace
}  // namespace fiveg::obs
