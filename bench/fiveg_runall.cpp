// The one entry point CI and humans share: runs the whole experiment
// registry (or a filtered/smoke subset) across a thread pool and emits the
// text tables on stdout plus an optional machine-readable JSON document.
//
// Every invocation is a campaign of core::CampaignCell values: the plain
// --seed/--qdisc/--faults flags give one cell, --manifest gives a grid.
// Both run through the same shard, resume, store and Runner loop, and the
// cell alone decides a run's base seed and store labels.
//
// stdout is byte-identical for any --jobs value at the same seed; timing
// goes to stderr.
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "core/ledger.h"
#include "core/runner.h"
#include "core/scenario.h"
#include "core/store.h"
#include "fault/fault.h"
#include "net/aqm.h"
#include "obs/json_check.h"

namespace {

constexpr const char* kUsage = R"(usage: fiveg_runall [options]

Runs the full experiment registry (every reproduced table/figure) across a
thread pool. Output on stdout is byte-identical for any --jobs value at the
same seed; per-experiment timing is printed to stderr.

options (each one that takes a value may be given once):
  --jobs N      worker threads (default: hardware concurrency; 1 = serial)
  --sim-threads N
                intra-experiment lane workers for the parallel event core
                (sim::ParSim); 1 = serial core (default), 0 = auto
                (hardware concurrency split across --jobs). Output is
                byte-identical for every value
  --seed N      base seed; every experiment runs on its own fork (default 42).
                With a non-default --qdisc or --faults the runs fork from
                the cell seed instead (see --manifest)
  --filter S    only experiments whose name contains the substring S
  --smoke       only the fast smoke-tier experiments (CI per-commit tier)
  --timeout S   per-experiment wall-clock cap in seconds, 0 = off
                (default 600); so is a cap past the steady clock's range
                (about 146 years); a hung experiment is reported, not fatal
  --json PATH   also write machine-readable results to PATH ('-' = stdout,
                which suppresses the text tables)
  --trace PATH  write a merged Chrome trace_event JSON document to PATH
                (load in chrome://tracing or ui.perfetto.dev); one process
                per experiment, one thread per layer (sim/ran/tcp/net/energy)
  --trace-capacity N
                per-experiment trace ring capacity in events
                (default 262144; oldest events drop first)
  --faults PATH run every experiment under the fault plan at PATH (JSON,
                schema "fiveg-faults/v1"); deterministic per-experiment
                fault seeds, byte-identical at any --jobs
  --qdisc SPEC  queue discipline at every testbed's wireline bottleneck:
                droptail (default), codel, fq_codel or red, with an
                optional +ecn suffix (e.g. codel+ecn). Experiments that
                pin their own qdisc (the AQM sweeps) are unaffected.
  --ledger PATH append one fiveg-ledger/v1 JSONL record per completed run
                (crash-safe; feeds --resume and tools/fiveg_prof)
  --resume PATH reload the ledger at PATH, skip every run it already has at
                its cell's seed, and keep appending to it; the merged
                output is byte-identical to an uninterrupted campaign.
                Incompatible with --trace (ledgers carry no event traces)
  --store DIR   append one fiveg-rs/v1 columnar record per completed run to
                DIR/shard-<k>-of-<n>.fgrs (compact binary; merge and query
                with tools/fiveg_query). Composes with --ledger/--resume:
                resumed runs backfill their store records idempotently
  --manifest PATH
                run the fiveg-campaign/v1 parameter grid at PATH (seeds x
                qdisc x fault plans), cells sequentially at their own
                seeds: the drop-tail, fault-free cell at its axis seed,
                every other cell at a fork of it. Plain flags describe one
                such cell. The manifest supplies seed/filter/smoke/qdisc/
                faults; incompatible with --seed/--filter/--smoke/--qdisc/
                --faults/--json/--trace (export merged JSON with
                fiveg_query instead)
  --shard K/N   run only this invocation's share of the campaign: work
                unit i (cell-major, experiment-name order) belongs to
                shard K iff i mod N == K. The union of shards 0..N-1 is
                exactly the full campaign (default 0/1)
  --no-timing   omit wall-clock fields from the JSON and the trace
                (byte-stable output)
  --quiet       suppress the text tables on stdout
  --list        list the selected experiment names and exit
  -h, --help    this message
)";

// The numeric flag parsers accept a whole string that fits the target
// exactly: strtol's long would be truncated to int, and strtod would pass
// "inf" and "nan" through. Unsigned flags use obs::parse_u64.
bool parse_int(const char* s, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  *out = static_cast<int>(v);
  return end != s && *end == '\0' && errno != ERANGE &&
         v >= std::numeric_limits<int>::min() &&
         v <= std::numeric_limits<int>::max();
}

bool parse_double(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0' && std::isfinite(*out);
}

// Loads the --resume ledger at `path`, warning about what it had to skip
// (those runs re-run). Null, with the error printed, when it cannot be read.
std::unique_ptr<fiveg::core::LedgerLoad> load_resume(const std::string& path) {
  auto load = std::make_unique<fiveg::core::LedgerLoad>(
      fiveg::core::load_ledger(path));
  if (!load->ok()) {
    std::cerr << load->error << "\n";
    return nullptr;
  }
  if (load->dropped_lines > 0 || load->corrupt_records > 0 ||
      load->truncated_tail) {
    std::cerr << "fiveg_runall: ledger " << path << ": skipped "
              << load->dropped_lines << " unparseable line(s), "
              << load->corrupt_records << " corrupt record(s)"
              << (load->truncated_tail ? ", torn final line" : "")
              << "; those runs will re-run\n";
  }
  return load;
}

// Opens (creating the directory if needed) this invocation's shard file
// inside the store directory. Null on failure, with the error printed.
std::shared_ptr<fiveg::core::StoreWriter> open_store(
    const std::string& store_dir, std::size_t shard_k, std::size_t shard_n) {
  std::error_code ec;
  std::filesystem::create_directories(store_dir, ec);
  if (ec) {
    std::cerr << "cannot create store directory " << store_dir << ": "
              << ec.message() << "\n";
    return nullptr;
  }
  std::string path = store_dir;
  path += "/shard-";
  path += std::to_string(shard_k);
  path += "-of-";
  path += std::to_string(shard_n);
  path += fiveg::core::kStoreFileSuffix;
  auto store = std::make_shared<fiveg::core::StoreWriter>(path);
  if (!store->ok()) {
    std::cerr << store->error() << "\n";
    return nullptr;
  }
  return store;
}

}  // namespace


int main(int argc, char** argv) {
  fiveg::core::RunnerOptions opt;
  opt.jobs = 0;  // hardware concurrency
  opt.timeout_s = 600;
  fiveg::core::CampaignCell plain_cell;  // the one cell the plain flags give
  std::string json_path;
  std::string trace_path;
  std::string resume_path;
  std::string store_dir;
  std::string manifest_path;
  std::size_t shard_k = 0;
  std::size_t shard_n = 1;
  bool cell_flag_set = false;  // a flag a manifest supplies itself
  bool include_timing = true;
  bool quiet = false;
  bool list_only = false;
  // Every flag that takes a value takes one: a second occurrence is a usage
  // error rather than a silent last-one-wins.
  std::set<std::string> valued_flags_seen;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&]() -> const char* {
      if (!valued_flags_seen.insert(arg).second) {
        std::cerr << arg << " given more than once\n";
        std::exit(2);
      }
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--jobs") {
      if (!parse_int(need_value(), &opt.jobs)) {
        std::cerr << "bad --jobs value\n";
        return 2;
      }
    } else if (arg == "--sim-threads") {
      if (!parse_int(need_value(), &opt.sim_threads)) {
        std::cerr << "bad --sim-threads value\n";
        return 2;
      }
    } else if (arg == "--seed") {
      if (!fiveg::obs::parse_u64(need_value(), &plain_cell.axis_seed)) {
        std::cerr << "bad --seed value\n";
        return 2;
      }
      cell_flag_set = true;
    } else if (arg == "--filter") {
      opt.filter = need_value();
      cell_flag_set = true;
    } else if (arg == "--smoke") {
      opt.smoke_only = true;
      cell_flag_set = true;
    } else if (arg == "--timeout") {
      if (!parse_double(need_value(), &opt.timeout_s) || opt.timeout_s < 0) {
        std::cerr << "bad --timeout value\n";
        return 2;
      }
    } else if (arg == "--json") {
      json_path = need_value();
    } else if (arg == "--trace") {
      trace_path = need_value();
      opt.trace = true;
    } else if (arg == "--trace-capacity") {
      std::uint64_t cap = 0;
      if (!fiveg::obs::parse_u64(need_value(), &cap) || cap == 0) {
        std::cerr << "bad --trace-capacity value\n";
        return 2;
      }
      opt.trace_capacity = static_cast<std::size_t>(cap);
    } else if (arg == "--faults") {
      plain_cell.faults = need_value();
      cell_flag_set = true;
    } else if (arg == "--qdisc") {
      fiveg::net::QdiscConfig qdisc;
      plain_cell.qdisc = need_value();
      if (!fiveg::net::parse_qdisc_spec(plain_cell.qdisc, &qdisc)) {
        std::cerr << "bad --qdisc value: " << plain_cell.qdisc
                  << " (want droptail|codel|fq_codel|red, optionally +ecn)\n";
        return 2;
      }
      cell_flag_set = true;
    } else if (arg == "--ledger") {
      opt.ledger_path = need_value();
    } else if (arg == "--resume") {
      resume_path = need_value();
    } else if (arg == "--store") {
      store_dir = need_value();
    } else if (arg == "--manifest") {
      manifest_path = need_value();
    } else if (arg == "--shard") {
      const char* spec = need_value();
      if (!fiveg::core::parse_shard_spec(spec, &shard_k, &shard_n)) {
        std::cerr << "bad --shard value: " << spec
                  << " (want K/N with K < N)\n";
        return 2;
      }
    } else if (arg == "--no-timing") {
      include_timing = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n" << kUsage;
      return 2;
    }
  }

  // The cells to run: the manifest's grid, or the one plain cell.
  const bool manifest = !manifest_path.empty();
  std::vector<fiveg::core::CampaignCell> cells{plain_cell};
  if (manifest) {
    if (cell_flag_set) {
      std::cerr << "--manifest supplies seed/filter/smoke/qdisc/faults; drop "
                   "the conflicting flags\n";
      return 2;
    }
    if (!json_path.empty() || opt.trace) {
      std::cerr << "--manifest cannot be combined with --json/--trace; "
                   "export merged JSON with fiveg_query\n";
      return 2;
    }
    fiveg::core::CampaignManifest m;
    std::string error;
    if (!fiveg::core::load_manifest(manifest_path, &m, &error)) {
      std::cerr << error << "\n";
      return 2;
    }
    cells = m.cells();
    opt.filter = m.filter;
    opt.smoke_only = m.smoke;
  }
  std::vector<std::shared_ptr<const fiveg::fault::FaultPlan>> plans;
  for (const fiveg::core::CampaignCell& cell : cells) {
    std::shared_ptr<const fiveg::fault::FaultPlan> plan;
    if (!cell.faults.empty()) {
      try {
        plan = std::make_shared<fiveg::fault::FaultPlan>(
            fiveg::fault::FaultPlan::load(cell.faults));
      } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
      }
    }
    plans.push_back(std::move(plan));
  }

  const std::vector<std::string> names = fiveg::core::Runner(opt).selected();
  const std::vector<fiveg::core::CampaignUnit> mine = fiveg::core::shard_units(
      fiveg::core::campaign_units(cells.size(), names), shard_k, shard_n);

  // Resume: one ledger, read per cell at that cell's base seed, so a run
  // of one cell never stands in for another's.
  std::vector<std::shared_ptr<
      const std::map<std::string, fiveg::core::ExperimentResult>>>
      resumes(cells.size());
  if (!resume_path.empty()) {
    if (opt.trace) {
      // Ledger records carry the full result but not the event trace, so a
      // resumed campaign cannot reconstruct a complete merged trace.
      std::cerr << "--resume cannot be combined with --trace\n";
      return 2;
    }
    const std::unique_ptr<fiveg::core::LedgerLoad> load =
        load_resume(resume_path);
    if (load == nullptr) return 2;
    std::size_t complete = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      resumes[i] = std::make_shared<
          const std::map<std::string, fiveg::core::ExperimentResult>>(
          fiveg::core::completed_runs(*load, cells[i].base_seed()));
      complete += resumes[i]->size();
    }
    std::cerr << "fiveg_runall: resuming from " << resume_path << ": "
              << complete << " run(s) already complete\n";
    // Keep appending to the same ledger so a second interruption resumes
    // from the union.
    if (opt.ledger_path.empty()) opt.ledger_path = resume_path;
  }

  if (list_only) {
    for (const fiveg::core::CampaignUnit& u : mine) {
      if (manifest) {
        std::cout << "seed=" << cells[u.cell].axis_seed << ";"
                  << cells[u.cell].tag() << " ";
      }
      std::cout << u.experiment << "\n";
    }
    return 0;
  }
  if (names.empty()) {
    std::cerr << (manifest ? "no experiments match the manifest selection\n"
                           : "no experiments match\n");
    return 2;
  }
  if (mine.empty()) {
    std::cerr << "fiveg_runall: shard " << shard_k << "/" << shard_n
              << " has no work units\n";
    return 0;
  }
  if (!store_dir.empty()) {
    opt.store = open_store(store_dir, shard_k, shard_n);
    if (opt.store == nullptr) return 2;
  }

  // Cells run one after another: the bottleneck qdisc is a process-wide
  // default that holds for one cell at a time.
  std::vector<std::vector<std::string>> per_cell(cells.size());
  for (const fiveg::core::CampaignUnit& u : mine) {
    per_cell[u.cell].push_back(u.experiment);
  }
  fiveg::core::RunSummary summary;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (per_cell[i].empty()) continue;
    const fiveg::core::CampaignCell& cell = cells[i];
    fiveg::core::RunnerOptions cell_opt = opt;
    cell_opt.seed = cell.base_seed();
    cell_opt.only_names = std::move(per_cell[i]);
    cell_opt.store_labels = cell.labels();
    cell_opt.faults = plans[i];
    cell_opt.resume = resumes[i];
    fiveg::net::QdiscConfig qdisc;
    (void)fiveg::net::parse_qdisc_spec(cell.qdisc, &qdisc);  // validated
    fiveg::core::set_campaign_bottleneck_qdisc(qdisc);
    if (manifest) {
      std::cerr << "fiveg_runall: cell seed=" << cell.axis_seed << ";"
                << cell.tag() << ": " << cell_opt.only_names.size()
                << " run(s)\n";
    }
    fiveg::core::RunSummary cell_summary =
        fiveg::core::Runner(cell_opt).run();
    summary.wall_ms += cell_summary.wall_ms;
    for (fiveg::core::ExperimentResult& r : cell_summary.results) {
      summary.results.push_back(std::move(r));
    }
  }

  if (json_path == "-") {
    fiveg::core::write_json(summary, std::cout, include_timing);
  } else {
    if (!json_path.empty()) {
      std::ofstream f(json_path);
      if (!f) {
        std::cerr << "cannot open " << json_path << " for writing\n";
        return 2;
      }
      fiveg::core::write_json(summary, f, include_timing);
    }
    if (!quiet) fiveg::core::write_text(summary, std::cout);
  }
  if (!trace_path.empty()) {
    std::ofstream f(trace_path);
    if (!f) {
      std::cerr << "cannot open " << trace_path << " for writing\n";
      return 2;
    }
    fiveg::core::write_chrome_trace(summary, f, include_timing);
  }
  fiveg::core::write_timing(summary, std::cerr);
  return summary.all_ok() ? 0 : 1;
}
