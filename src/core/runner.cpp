#include "core/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include <optional>

#include "core/ledger.h"
#include "core/store.h"
#include "fault/fault.h"
#include "measure/json.h"
#include "obs/chrome_trace.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "sim/rng.h"

namespace fiveg::core {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// The wall-clock deadline `timeout_s` after `now`, or nullopt for no
// deadline: a timeout of 0 is off, and so is one past the steady clock's
// range, which would overflow its integer duration. Only timeouts below
// half the clock's headroom get a deadline, so the rounding of the double
// comparison can never push the conversion out of range.
std::optional<Clock::time_point> deadline_after(Clock::time_point now,
                                                double timeout_s) {
  const double headroom_s =
      std::chrono::duration<double>(Clock::time_point::max() - now).count();
  if (!(timeout_s > 0) || timeout_s >= 0.5 * headroom_s) return std::nullopt;
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(timeout_s));
}

// Shared between the worker and the (possibly abandoned) experiment thread.
// On timeout the worker walks away and the thread keeps writing here until
// the experiment returns; the shared_ptr keeps the state alive for it.
struct ExecState {
  std::ostringstream out;
  ExperimentResult result;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
};

// Observability settings copied out of RunnerOptions: the experiment may
// run on a detached thread that outlives the Runner, so it must not hold a
// reference back into it.
struct ExecOptions {
  bool collect_metrics = true;
  bool trace = false;
  std::size_t trace_capacity = 0;
  std::shared_ptr<const fault::FaultPlan> faults;
  int sim_threads = 1;
};

// Inter/intra parallelism split. An explicit --sim-threads value is
// honored as given (capped sanely): the caller asked for that many lane
// workers per experiment and output never depends on the count. Auto
// (<= 0) divides the machine between the two axes — each of the `jobs`
// concurrent experiments gets max(1, hw / jobs) lane workers, so
// `--jobs 0 --sim-threads 0` saturates without oversubscribing.
int split_sim_threads(const RunnerOptions& opt) {
  if (opt.sim_threads > 0) return std::min(opt.sim_threads, 64);
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw <= 0) hw = 1;
  const int jobs = std::max(opt.jobs <= 0 ? hw : opt.jobs, 1);
  return std::max(1, hw / jobs);
}

// Runs the experiment body, capturing text, metrics and exceptions. The
// obs scope is installed here — on the thread the body actually runs on —
// so every Simulator and protocol object the experiment builds picks up
// this experiment's private registry/tracer.
void execute(const ExperimentSpec& spec, std::uint64_t seed,
             ExecState& state, ExecOptions obs_opt) {
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::shared_ptr<obs::Tracer> tracer;
  if (obs_opt.collect_metrics) {
    registry = std::make_unique<obs::MetricsRegistry>();
  }
  if (obs_opt.trace) {
    tracer = std::make_shared<obs::Tracer>(
        obs_opt.trace_capacity != 0 ? obs_opt.trace_capacity
                                    : obs::Tracer::kDefaultCapacity);
  }
  const obs::ScopedObs scope(tracer.get(), registry.get());

  // Fault injection: install the runtime before the experiment body runs,
  // so every Simulator (which arms the plan at construction) and every
  // injection point (which caches the runtime handle at construction) sees
  // it. The fault seed is a named fork of the experiment seed — fault
  // randomness never perturbs the experiment's own streams.
  std::unique_ptr<fault::Runtime> fault_runtime;
  std::optional<fault::ScopedFaults> fault_scope;
  if (obs_opt.faults != nullptr && !obs_opt.faults->empty()) {
    fault_runtime = std::make_unique<fault::Runtime>(
        obs_opt.faults.get(), sim::Rng(seed).fork("fault").seed());
    fault_scope.emplace(fault_runtime.get());
  }

  ExperimentContext ctx;
  ctx.seed = seed;
  ctx.out = &state.out;
  ctx.result = &state.result;
  ctx.sim_threads = obs_opt.sim_threads;
  try {
    print_banner(spec, seed, state.out);
    spec.run(ctx);
    state.result.status = RunStatus::kOk;
  } catch (const std::exception& e) {
    state.result.status = RunStatus::kFailed;
    state.result.error = e.what();
  } catch (...) {
    state.result.status = RunStatus::kFailed;
    state.result.error = "unknown exception";
  }
  if (registry != nullptr) {
    // Sample memory at body completion so the profile object carries it.
    // Process-wide (see prof.h), like wall clocks elsewhere: kWall only.
    registry->gauge(obs::prof::kPeakRssMetric, obs::MetricClock::kWall)
        .set(static_cast<double>(obs::prof::peak_rss_kb()));
    state.result.counters = registry->snapshot(obs::MetricClock::kSim);
    state.result.profile = registry->snapshot(obs::MetricClock::kWall);
  }
  state.result.peak_rss_kb = obs::prof::peak_rss_kb();
  state.result.trace = std::move(tracer);
}

}  // namespace

int RunSummary::count(RunStatus status) const {
  int n = 0;
  for (const ExperimentResult& r : results) n += (r.status == status);
  return n;
}

bool RunSummary::all_ok() const {
  return count(RunStatus::kOk) == static_cast<int>(results.size());
}

Runner::Runner(RunnerOptions opt, const ExperimentRegistry* registry)
    : opt_(std::move(opt)),
      registry_(registry != nullptr ? registry
                                    : &ExperimentRegistry::instance()) {}

std::uint64_t Runner::fork_seed(std::uint64_t base_seed,
                                std::string_view name) {
  return sim::Rng(base_seed).fork(name).seed();
}

std::vector<std::string> Runner::selected() const {
  const std::set<std::string> only(opt_.only_names.begin(),
                                   opt_.only_names.end());
  std::vector<std::string> out;
  for (const std::string& name : registry_->names()) {
    if (!only.empty() && only.count(name) == 0) continue;
    if (!opt_.filter.empty() &&
        name.find(opt_.filter) == std::string::npos) {
      continue;
    }
    if (opt_.smoke_only && !registry_->find(name)->smoke) continue;
    out.push_back(name);
  }
  return out;  // names() is already sorted
}

ExperimentResult Runner::run_one(const std::string& name) const {
  const ExperimentSpec& spec = *registry_->find(name);
  auto state = std::make_shared<ExecState>();
  ExperimentResult& res = state->result;
  res.name = name;
  res.paper_ref = spec.paper_ref;
  res.description = spec.description;
  res.seed = fork_seed(opt_.seed, name);

  const ExecOptions obs_opt{opt_.collect_metrics, opt_.trace,
                            opt_.trace_capacity, opt_.faults,
                            split_sim_threads(opt_)};
  const auto start = Clock::now();
  const std::optional<Clock::time_point> deadline =
      deadline_after(start, opt_.timeout_s);
  if (!deadline) {
    execute(spec, res.seed, *state, obs_opt);
    res.wall_ms = ms_since(start);
    res.text = state->out.str();
    return std::move(res);
  }

  // Run the body on its own thread so a hang can be abandoned. The thread
  // owns a copy of the spec, never a reference into the registry (which
  // may be destroyed while an abandoned run still executes), and a
  // reference to the shared state; after a timeout nobody reads that state
  // again.
  std::thread worker([spec, state, seed = res.seed, obs_opt] {
    execute(spec, seed, *state, obs_opt);
    const std::lock_guard<std::mutex> lock(state->mu);
    state->done = true;
    state->cv.notify_all();
  });

  std::unique_lock<std::mutex> lock(state->mu);
  const bool finished =
      state->cv.wait_until(lock, *deadline, [&] { return state->done; });
  if (finished) {
    lock.unlock();
    worker.join();
    res.wall_ms = ms_since(start);
    res.text = state->out.str();
    return std::move(res);
  }

  // Abandon the hung experiment: report a timeout result assembled from
  // metadata only (the state buffers are still being written to).
  lock.unlock();
  worker.detach();
  ExperimentResult timed_out;
  timed_out.name = res.name;
  timed_out.paper_ref = res.paper_ref;
  timed_out.description = res.description;
  timed_out.seed = res.seed;
  timed_out.status = RunStatus::kTimedOut;
  {
    std::ostringstream msg;
    msg << "exceeded per-experiment timeout of " << opt_.timeout_s << " s";
    timed_out.error = msg.str();
  }
  timed_out.wall_ms = ms_since(start);
  timed_out.peak_rss_kb = obs::prof::peak_rss_kb();
  return timed_out;
}

RunSummary Runner::run() const {
  const std::vector<std::string> names = selected();
  RunSummary summary;
  summary.results.resize(names.size());

  int jobs = opt_.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  jobs = std::min<int>(jobs, static_cast<int>(names.size()));
  jobs = std::max(jobs, 1);

  std::unique_ptr<LedgerWriter> ledger;
  if (!opt_.ledger_path.empty()) {
    ledger = std::make_unique<LedgerWriter>(opt_.ledger_path);
    if (!ledger->ok()) {
      std::fprintf(stderr, "fiveg_runall: %s (continuing without ledger)\n",
                   ledger->error().c_str());
      ledger.reset();
    }
  }

  const auto start = Clock::now();
  std::atomic<std::size_t> next{0};
  // Columnar store hookup: every finished result — freshly run or spliced
  // from the ledger — is offered to the store writer, which skips keys
  // already on disk. That makes a crashed-and-resumed campaign converge to
  // exactly one store record per run without any splice bookkeeping.
  const auto store_result = [this](const ExperimentResult& r) {
    if (opt_.store == nullptr) return;
    StoreRecord rec;
    rec.result = r;
    rec.labels = opt_.store_labels;
    opt_.store->append(rec);
  };
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= names.size()) return;
      // Resume splice: a ledger record at the right seed stands in for the
      // run verbatim (and is not re-appended — it is already on disk).
      if (opt_.resume != nullptr) {
        const auto it = opt_.resume->find(names[i]);
        if (it != opt_.resume->end()) {
          summary.results[i] = it->second;
          store_result(summary.results[i]);
          continue;
        }
      }
      summary.results[i] = run_one(names[i]);
      if (ledger != nullptr) ledger->append(summary.results[i]);
      store_result(summary.results[i]);
    }
  };

  if (jobs == 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int j = 0; j < jobs; ++j) pool.emplace_back(drain);
    for (std::thread& t : pool) t.join();
  }

  summary.wall_ms = ms_since(start);
  return summary;
}

void write_text(const RunSummary& summary, std::ostream& os) {
  for (const ExperimentResult& r : summary.results) {
    if (r.status == RunStatus::kOk) {
      os << r.text;
    } else {
      os << "### " << r.name << " — " << to_string(r.status) << ": "
         << r.error << "\n\n";
    }
  }
  os << summary.results.size() << " experiments: "
     << summary.count(RunStatus::kOk) << " ok, "
     << summary.count(RunStatus::kFailed) << " failed, "
     << summary.count(RunStatus::kTimedOut) << " timed out\n";
}

namespace {

// Expands one metric snapshot vector into a flat JSON object. Snapshots
// arrive sorted by (name, kind), so the member order is deterministic.
void write_snapshot_object(measure::JsonWriter& w,
                           const std::vector<obs::MetricSnapshot>& snaps) {
  w.begin_object();
  for (const obs::MetricSnapshot& s : snaps) {
    switch (s.kind) {
      case obs::MetricSnapshot::Kind::kCounter:
        w.kv(s.name, static_cast<std::uint64_t>(s.value));
        break;
      case obs::MetricSnapshot::Kind::kGauge:
        w.kv(s.name, s.value);
        w.kv(s.name + ".max", s.max);
        break;
      case obs::MetricSnapshot::Kind::kDigest:
        w.kv(s.name + ".count", s.count);
        w.kv(s.name + ".mean", s.value);
        w.kv(s.name + ".min", s.min);
        w.kv(s.name + ".max", s.max);
        w.kv(s.name + ".p05", s.p05);
        w.kv(s.name + ".p25", s.p25);
        w.kv(s.name + ".p50", s.p50);
        w.kv(s.name + ".p75", s.p75);
        w.kv(s.name + ".p90", s.p90);
        w.kv(s.name + ".p95", s.p95);
        w.kv(s.name + ".p99", s.p99);
        break;
    }
  }
  w.end_object();
}

// Full bucket payloads per digest, so external consumers (fiveg_report,
// notebooks) can rebuild distributions instead of settling for the flat
// percentile keys.
void write_digests_object(measure::JsonWriter& w,
                          const std::vector<obs::MetricSnapshot>& snaps) {
  w.begin_object();
  for (const obs::MetricSnapshot& s : snaps) {
    if (s.kind != obs::MetricSnapshot::Kind::kDigest) continue;
    w.key(s.name);
    w.begin_object();
    w.kv("count", s.count);
    w.kv("sum", s.sum);
    w.kv("min", s.min);
    w.kv("max", s.max);
    w.kv("zero", s.zero_count);
    w.key("bins");
    write_bins_array(w, s.bins);
    w.key("neg_bins");
    write_bins_array(w, s.neg_bins);
    w.end_object();
  }
  w.end_object();
}

}  // namespace

void write_bins_array(measure::JsonWriter& w, const obs::Bins& bins) {
  w.begin_array();
  for (const auto& [key, count] : bins) {
    w.begin_array();
    w.value(static_cast<std::int64_t>(key));
    w.value(count);
    w.end_array();
  }
  w.end_array();
}

void write_series_array(measure::JsonWriter& w,
                        const std::vector<MetricSeries>& metrics) {
  w.begin_array();
  for (const MetricSeries& s : metrics) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("unit", s.unit);
    w.key("points");
    w.begin_array();
    for (const MetricPoint& p : s.points) {
      w.begin_array();
      w.value(p.x);
      w.value(p.y);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

void write_json(const RunSummary& summary, std::ostream& os,
                bool include_timing) {
  measure::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "fiveg-runall/v5");
  w.key("experiments");
  w.begin_array();
  for (const ExperimentResult& r : summary.results) {
    w.begin_object();
    w.kv("name", r.name);
    w.kv("paper_ref", r.paper_ref);
    w.kv("description", r.description);
    w.kv("seed", r.seed);
    w.kv("status", to_string(r.status));
    if (r.status != RunStatus::kOk) w.kv("error", r.error);
    if (include_timing) {
      w.kv("wall_ms", r.wall_ms);
      w.kv("peak_rss_kb", r.peak_rss_kb);
    }
    w.key("metrics");
    write_series_array(w, r.metrics);
    w.key("counters");
    write_snapshot_object(w, r.counters);
    if (std::any_of(r.counters.begin(), r.counters.end(),
                    [](const obs::MetricSnapshot& s) {
                      return s.kind == obs::MetricSnapshot::Kind::kDigest;
                    })) {
      w.key("digests");
      write_digests_object(w, r.counters);
    }
    if (include_timing && !r.profile.empty()) {
      w.key("profile");
      write_snapshot_object(w, r.profile);
    }
    w.kv("text", r.text);
    w.end_object();
  }
  w.end_array();
  w.key("summary");
  w.begin_object();
  w.kv("total", static_cast<std::int64_t>(summary.results.size()));
  w.kv("ok", summary.count(RunStatus::kOk));
  w.kv("failed", summary.count(RunStatus::kFailed));
  w.kv("timed_out", summary.count(RunStatus::kTimedOut));
  if (include_timing) {
    w.kv("wall_ms", summary.wall_ms);
    std::uint64_t peak = 0;
    for (const ExperimentResult& r : summary.results) {
      peak = std::max(peak, r.peak_rss_kb);
    }
    w.kv("peak_rss_kb", peak);
  }
  w.end_object();
  w.end_object();
  os << "\n";
}

void write_timing(const RunSummary& summary, std::ostream& os) {
  std::vector<const ExperimentResult*> by_time;
  by_time.reserve(summary.results.size());
  for (const ExperimentResult& r : summary.results) by_time.push_back(&r);
  std::sort(by_time.begin(), by_time.end(),
            [](const ExperimentResult* a, const ExperimentResult* b) {
              return a->wall_ms > b->wall_ms;
            });
  for (const ExperimentResult* r : by_time) {
    os << "  " << to_string(r->status) << "  "
       << static_cast<std::int64_t>(r->wall_ms) << " ms  " << r->name
       << "\n";
  }
  os << "total " << static_cast<std::int64_t>(summary.wall_ms) << " ms\n";
}

void write_chrome_trace(const RunSummary& summary, std::ostream& os,
                        bool include_wall) {
  std::vector<obs::ChromeProcess> processes;
  processes.reserve(summary.results.size());
  for (const ExperimentResult& r : summary.results) {
    if (r.trace == nullptr) continue;
    obs::ChromeProcess p;
    p.name = r.name;
    p.tracer = r.trace.get();
    p.wall_ms = r.wall_ms;
    processes.push_back(std::move(p));
  }
  obs::ChromeTraceOptions options;
  options.include_wall = include_wall;
  obs::write_chrome_trace(processes, os, options);
}

}  // namespace fiveg::core
