// Microbenchmarks for the fiveg-rs/v1 columnar result store: append
// throughput through StoreWriter (the per-run cost a campaign pays),
// load+merge throughput across shards (what fiveg_query pays), and the
// on-disk size of the store relative to the equivalent fiveg-runall/v5
// JSON document — the store's reason to exist. Medians are committed as
// BENCH_store.json.
//
// The workload is shaped like a real campaign record: one KPI series,
// a handful of counters/gauges and three distributions with a few hundred
// observations each, so dictionary reuse and bin-column encoding dominate
// exactly as they do in production shards.
//
// Prints one JSON document on stdout:
//   {"reps": ..., "records": ..., "write_records_per_s_median": ...,
//    "merge_records_per_s_median": ..., "store_bytes": ...,
//    "json_bytes": ..., "store_to_json_ratio": ...}
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/runner.h"
#include "core/store.h"
#include "obs/metrics.h"
#include "sim/rng.h"

namespace {

using namespace fiveg;  // NOLINT: benchmark file brevity
using bench::Clock;
namespace fs = std::filesystem;

constexpr int kReps = 5;
constexpr int kRecords = 400;
constexpr int kShards = 4;

// A record shaped like one experiment run of a figure sweep.
core::StoreRecord make_record(int i) {
  core::StoreRecord rec;
  rec.result.name = "fig" + std::to_string(i % 23) + "_bench";
  rec.result.seed = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1);
  rec.result.status = core::RunStatus::kOk;
  rec.result.paper_ref = "Figure " + std::to_string(i % 23);
  rec.result.description = "store benchmark synthetic run";
  rec.result.text = "== fig" + std::to_string(i % 23) + " ==\nrow\n";
  sim::Rng rng(rec.result.seed);
  core::MetricSeries series;
  series.name = "tput_mbps";
  series.unit = "Mbps";
  for (int p = 0; p < 16; ++p) {
    series.points.push_back(
        {static_cast<double>(p), rng.uniform(0.0, 1200.0)});
  }
  rec.result.metrics.push_back(std::move(series));
  obs::MetricsRegistry reg;
  reg.counter("sim.events").add(rng.uniform_int(1000, 100000));
  reg.counter("pkts.delivered").add(rng.uniform_int(100, 10000));
  reg.counter("pkts.dropped").add(rng.uniform_int(0, 50));
  reg.gauge("queue_depth_hwm").set(static_cast<double>(
      rng.uniform_int(1, 64)));
  for (int s = 0; s < 400; ++s) {
    reg.digest("lat_us").observe(rng.lognormal(4.0, 1.2));
    reg.digest("owd_ms").observe(rng.normal(25.0, 8.0));
    reg.digest("tput_mbps").observe(rng.lognormal(3.0, 0.8));
  }
  rec.result.counters = reg.snapshot(obs::MetricClock::kSim);
  rec.labels = {{"faults", ""},
                {"qdisc", (i % 2) != 0 ? "codel" : "droptail"}};
  return rec;
}

}  // namespace

int main() {
  const fs::path dir =
      fs::temp_directory_path() / "fiveg_bench_store";
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::vector<core::StoreRecord> records;
  records.reserve(kRecords);
  for (int i = 0; i < kRecords; ++i) records.push_back(make_record(i));

  // The JSON the same results would occupy in a fiveg-runall/v5 document.
  core::RunSummary summary;
  for (const core::StoreRecord& rec : records) {
    summary.results.push_back(rec.result);
  }
  std::ostringstream json;
  core::write_json(summary, json, /*include_timing=*/false);
  const std::size_t json_bytes = json.str().size();

  std::vector<double> write_rps;
  std::vector<double> merge_rps;
  std::size_t store_bytes = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const fs::path rep_dir = dir / ("rep" + std::to_string(rep));
    fs::create_directories(rep_dir);
    const auto wstart = Clock::now();
    {
      std::vector<std::unique_ptr<core::StoreWriter>> writers;
      for (int s = 0; s < kShards; ++s) {
        writers.push_back(std::make_unique<core::StoreWriter>(
            (rep_dir / ("shard-" + std::to_string(s) + "-of-" +
                        std::to_string(kShards) + ".fgrs"))
                .string()));
      }
      for (int i = 0; i < kRecords; ++i) {
        if (!writers[i % kShards]->append(records[i])) return 1;
      }
    }
    write_rps.push_back(kRecords / bench::seconds_since(wstart));

    const auto mstart = Clock::now();
    core::StoreDirLoad load = core::load_store_dir(rep_dir.string());
    if (!load.ok() || load.records.size() != kRecords) return 1;
    const std::vector<core::StoreRecord> view =
        core::canonical_view(std::move(load.records));
    if (view.size() != kRecords) return 1;
    merge_rps.push_back(kRecords / bench::seconds_since(mstart));

    if (rep == 0) {
      for (const auto& entry : fs::directory_iterator(rep_dir)) {
        store_bytes += fs::file_size(entry.path());
      }
    }
  }
  fs::remove_all(dir);

  std::printf(
      "{\"reps\": %d, \"records\": %d, "
      "\"write_records_per_s_median\": %.0f, "
      "\"merge_records_per_s_median\": %.0f, \"store_bytes\": %zu, "
      "\"json_bytes\": %zu, \"store_to_json_ratio\": %.4f}\n",
      kReps, kRecords, bench::median(write_rps), bench::median(merge_rps),
      store_bytes, json_bytes,
      static_cast<double>(store_bytes) / static_cast<double>(json_bytes));
  return 0;
}
