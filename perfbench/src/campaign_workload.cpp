// campaign_smoke: the smoke tier through core::Runner at one job with the
// ledger and the columnar store on, as CI and long campaigns run it, then
// the read path: load_store_dir -> canonical_view -> report::build_reports.
// This is the only workload where the runner, ledger, store, report,
// energy and app code run.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ledger.h"
#include "core/runner.h"
#include "core/store.h"
#include "iterate.h"
#include "obs/json_check.h"
#include "report/report.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = fiveg::core;
namespace fs = std::filesystem;

struct CampaignInputs {
  std::uint64_t base_seed = 0;  // the Runner's campaign seed
  int jobs = 0;
  int sim_threads = 0;
  std::vector<std::string> skipped;  // smoke experiments left out
};

// The campaign seed is the --seed itself: the committed goldens are
// recorded at seed 42, so that seed must reach the Runner unchanged.
// The smoke tier's three bulk-TCP runs are left out: they take 9 of its
// 10.5 s, so the campaign machinery would be a tenth of the time, and
// one iteration would be too long to repeat often enough in a run. Their
// work is tcp_bulk's.
CampaignInputs generate_campaign(std::uint64_t seed) {
  CampaignInputs in;
  in.base_seed = seed;
  in.jobs = 1;
  in.sim_threads = 1;
  in.skipped = {"aqm_bufferbloat", "dsl_replacement", "smoke_tcp_bulk"};
  return in;
}

constexpr std::uint64_t kGoldenSeed = 42;

// The run's own directory, <work>/campaign-<pid>/{store/}, made once
// so that directory churn stays out of the timed set-up; removed at exit.
struct WorkDir {
  fs::path dir;
  explicit WorkDir(const std::string& work_dir)
      : dir(fs::path(work_dir) /
            ("campaign-" + std::to_string(::getpid()))) {
    fs::remove_all(dir);
    fs::create_directories(dir / "store");
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

// One campaign writing a fresh ledger and store shard into the work dir;
// the files go away with the instance, so the next one starts empty.
struct Campaign {
  fs::path dir;
  fs::path ledger_path;
  fs::path store_dir;
  std::shared_ptr<core::StoreWriter> store;
  std::unique_ptr<core::Runner> runner;
  std::vector<std::string> selected;
  core::RunSummary summary;
  bool traced = false;
  // Read-path readings, filled by verify().
  double store_load_ms = 0, store_merge_ms = 0, report_build_ms = 0;
  double ledger_load_ms = 0, store_write_ms = 0;
  double store_bytes = 0, ledger_bytes = 0;

  Campaign() = default;
  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;
  ~Campaign() {
    store.reset();
    std::error_code ec;
    for (const fs::path& p : {ledger_path, store_dir / "campaign.fgrs",
                              dir / "rewrite.fgrs"}) {
      fs::remove(p, ec);
    }
  }
};

std::unique_ptr<Campaign> build_campaign(const CampaignInputs& in,
                                         const std::vector<std::string>& runs,
                                         const fs::path& dir, bool traced) {
  auto c = std::make_unique<Campaign>();
  c->traced = traced;
  c->dir = dir;
  c->store_dir = c->dir / "store";
  c->ledger_path = c->dir / "ledger.jsonl";
  c->store = std::make_shared<core::StoreWriter>(
      (c->store_dir / "campaign.fgrs").string());
  if (!c->store->ok()) {
    throw std::runtime_error("store: " + c->store->error());
  }
  core::RunnerOptions ro;
  ro.jobs = in.jobs;
  ro.sim_threads = in.sim_threads;
  ro.seed = in.base_seed;
  ro.smoke_only = true;
  ro.only_names = runs;
  ro.collect_metrics = true;
  ro.ledger_path = c->ledger_path.string();
  ro.store = c->store;
  ro.trace = traced;
  ro.trace_capacity = 1 << 14;  // per experiment; the ring keeps the tail
  c->runner = std::make_unique<core::Runner>(ro);
  c->selected = c->runner->selected();
  return c;
}

double ms_since(Clock::time_point start) { return seconds_since(start) * 1e3; }

// 0 when the file is missing: the checks then report it, no exception.
double file_bytes(const fs::path& path) {
  std::error_code ec;
  const std::uintmax_t n = fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n);
}

std::string read_file(const fs::path& path) {
  std::ifstream f(path);
  if (!f) return {};
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void verify_campaign(Campaign& c, Checks& checks, Checksum& sum,
                     const CampaignInputs& in, const Options& opt) {
  const std::vector<core::ExperimentResult>& results = c.summary.results;
  checks.require(!results.empty() && results.size() == c.selected.size(),
                 "campaign ran " + std::to_string(results.size()) + " of " +
                     std::to_string(c.selected.size()) + " experiments");
  std::map<std::string, std::string> expected;  // name -> ledger checksum
  for (const core::ExperimentResult& r : results) {
    checks.require(r.status == core::RunStatus::kOk,
                   r.name + ": " + std::string(core::to_string(r.status)) +
                       " " + r.error);
    expected[r.name] = core::ledger_checksum(r);
    sum.add(r.name);
    sum.add(expected[r.name]);
  }

  // The ledger reads back one valid record per run.
  auto start = Clock::now();
  const core::LedgerLoad ledger = core::load_ledger(c.ledger_path.string());
  c.ledger_load_ms = ms_since(start);
  c.ledger_bytes = file_bytes(c.ledger_path);
  checks.require(ledger.ok() && ledger.records.size() == results.size() &&
                     ledger.corrupt_records == 0 &&
                     ledger.dropped_lines == 0 && !ledger.truncated_tail,
                 "ledger read-back does not hold one valid record per run");
  for (const core::ExperimentResult& r : ledger.records) {
    checks.require(expected.count(r.name) != 0 &&
                       core::ledger_checksum(r) == expected[r.name],
                   "ledger record " + r.name + " differs from the run");
  }

  // The store read path, as fiveg_report --from-store takes it.
  start = Clock::now();
  core::StoreDirLoad load = core::load_store_dir(c.store_dir.string());
  c.store_load_ms = ms_since(start);
  c.store_bytes = file_bytes(c.store_dir / "campaign.fgrs");
  start = Clock::now();
  const std::vector<core::StoreRecord> view =
      core::canonical_view(std::move(load.records));
  c.store_merge_ms = ms_since(start);
  start = Clock::now();
  core::RunSummary stored;
  for (const core::StoreRecord& rec : view) stored.results.push_back(rec.result);
  std::ostringstream json;
  core::write_json(stored, json, /*include_timing=*/false);
  std::string error;
  const auto doc = fiveg::obs::json_parse(json.str(), &error);
  fiveg::report::BuildResult built;
  if (doc != nullptr) built = fiveg::report::build_reports(*doc);
  c.report_build_ms = ms_since(start);
  checks.require(load.ok() && load.torn_files == 0 &&
                     load.dropped_records == 0,
                 "store load failed: " + load.error);
  checks.require(doc != nullptr && built.ok(),
                 "reports from the store failed: " + error + built.error);
  checks.require(view.size() == results.size(),
                 "store holds " + std::to_string(view.size()) +
                     " records for " + std::to_string(results.size()) +
                     " runs");
  for (const core::StoreRecord& rec : view) {
    checks.require(expected.count(rec.result.name) != 0 &&
                       core::ledger_checksum(rec.result) ==
                           expected[rec.result.name],
                   "store record " + rec.result.name + " differs from the run");
  }
  for (const fiveg::report::FigureReport& fig : built.figures) {
    sum.add(fig.id);
    sum.add(static_cast<std::uint64_t>(fig.metrics.size()));
  }

  // Zero golden drift, at the seed the goldens were recorded with.
  if (in.base_seed == kGoldenSeed) {
    for (const fiveg::report::FigureReport& fig : built.figures) {
      const fs::path path = fs::path(opt.golden_dir) / (fig.id + ".json");
      const auto golden_doc = fiveg::obs::json_parse(read_file(path), &error);
      fiveg::report::GoldenFigure golden;
      if (golden_doc == nullptr ||
          !fiveg::report::parse_golden(*golden_doc, &golden, &error)) {
        checks.require(false, "golden " + path.string() + ": " + error);
        continue;
      }
      const std::vector<fiveg::report::Drift> drift =
          fiveg::report::check_figure(fig, golden);
      checks.require(drift.empty(),
                     fig.id + ": " + std::to_string(drift.size()) +
                         " drifting metric(s)" +
                         (drift.empty() ? "" : ", first " +
                                                   drift.front().describe()));
    }
  }

  // The write path on its own: the campaign's records into a fresh shard.
  if (c.traced) {
    core::StoreWriter writer((c.dir / "rewrite.fgrs").string());
    start = Clock::now();
    for (const core::ExperimentResult& r : results) {
      core::StoreRecord rec;
      rec.result = r;
      writer.append(rec);
    }
    c.store_write_ms = ms_since(start);
    checks.require(writer.ok() && writer.appended() == results.size(),
                   "fresh store writer did not take every record");
  }
}

}  // namespace

Outcome run_campaign_smoke(const Options& opt) {
  const CampaignInputs in = generate_campaign(opt.seed);
  Outcome out;
  out.threads = in.jobs * in.sim_threads;
  out.inputs = {{"base_seed", std::to_string(in.base_seed)},
                {"jobs", std::to_string(in.jobs)},
                {"sim_threads", std::to_string(in.sim_threads)},
                {"tier", "smoke"},
                {"golden_check", in.base_seed == kGoldenSeed ? "1" : "0"}};
  std::string skipped;
  for (const std::string& name : in.skipped) {
    skipped += (skipped.empty() ? "" : ",") + name;
  }
  out.inputs.emplace_back("skipped", skipped);
  out.unit_name = "runs";
  core::RunnerOptions smoke;
  smoke.smoke_only = true;
  const std::vector<std::string> tier = core::Runner(smoke).selected();
  std::vector<std::string> runs;
  for (const std::string& name : tier) {
    if (std::find(in.skipped.begin(), in.skipped.end(), name) ==
        in.skipped.end()) {
      runs.push_back(name);
    }
  }
  out.checks.require(runs.size() + in.skipped.size() == tier.size(),
                     "a skipped experiment is not in the smoke tier");

  Plan<Campaign> plan;
  plan.setup_reps = 10;
  plan.installs_own_scope = true;
  const WorkDir work(opt.work_dir);
  plan.build = [&in, &runs, &work](bool traced) {
    return build_campaign(in, runs, work.dir, traced);
  };
  plan.run = [](Campaign& c, Laps& laps) {
    const auto start = Clock::now();
    c.summary = c.runner->run();
    // One lap per experiment, as the Runner timed it, and one for the
    // Runner's own work around them.
    double experiments_s = 0;
    for (const core::ExperimentResult& r : c.summary.results) {
      laps.add(r.wall_ms / 1e3);
      experiments_s += r.wall_ms / 1e3;
    }
    laps.add(std::max(0.0, seconds_since(start) - experiments_s));
  };
  plan.verify = [&in, &opt](Campaign& c, Checks& checks, Checksum& sum) {
    verify_campaign(c, checks, sum, in, opt);
    if (opt.sabotage == Sabotage::kInvariant) {
      checks.require(false, "sabotaged invariant");
    }
  };
  plan.units = [](const Campaign& c) {
    return static_cast<double>(c.summary.results.size());
  };
  plan.layers = [](Campaign& c, LayerTable& t) {
    for (const core::ExperimentResult& r : c.summary.results) {
      t.add_profile(r.profile, r.counters);
    }
    t.set("store.write_ms", c.store_write_ms);
    t.set("store.bytes", c.store_bytes);
    t.set("store.load_ms", c.store_load_ms);
    t.set("store.merge_ms", c.store_merge_ms);
    t.set("report.build_ms", c.report_build_ms);
    t.set("ledger.bytes", c.ledger_bytes);
    t.set("ledger.load_ms", c.ledger_load_ms);
  };
  drive(opt, plan, out);
  return out;
}

}  // namespace perfbench
