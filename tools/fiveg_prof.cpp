// Campaign profile viewer: aggregates one or more fiveg-ledger/v1 files
// (fiveg_runall --ledger) into the tables an operator actually wants after
// a large sweep — where the wall time went (slowest runs, per-phase split,
// per-event-label attribution) and which experiments are flaky (mixed
// statuses, or ok runs at the same seed whose deterministic checksum
// disagrees, i.e. a determinism violation).
//
// With --store DIR the fiveg-rs/v1 columnar store written by the same
// campaign is loaded alongside and cross-checked against the ledger:
// every ledgered run must have exactly one store record at the same
// (experiment, seed), and every store record must be backed by a ledger
// run. Any missing, duplicated or orphaned record is listed and the exit
// status is non-zero — this is the cheap end-of-campaign audit that the
// durable artifacts actually agree.
//
// Runs whose Callable heap allocations exceed 10% of their scheduled
// events are flagged in both outputs (a warning; the exit status ignores
// it).
//
// usage: fiveg_prof LEDGER... [--store DIR] [--top N] [--json]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/ledger.h"
#include "core/store.h"
#include "measure/json.h"
#include "measure/table.h"
#include "obs/json_check.h"
#include "obs/prof.h"

namespace {

using fiveg::core::ExperimentResult;
using fiveg::core::RunStatus;

constexpr const char* kUsage = R"(usage: fiveg_prof LEDGER... [options]

Aggregates campaign run ledgers (fiveg_runall --ledger) into wall-time and
flakiness tables, and flags runs whose event-core heap allocations exceed
10% of their scheduled events.

options:
  --store DIR  also load the fiveg-rs/v1 store the campaign wrote with
               --store and cross-check it against the ledger: every
               ledgered run must have exactly one store record and vice
               versa (mismatches are listed; exit status is non-zero)
  --top N   rows in the slowest-runs and label tables (default 10)
  --json    emit a machine-readable fiveg-prof/v1 document instead of text
  -h, --help  this message
)";

std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", ms);
  return buf;
}

std::string fmt_us(double us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", us);
  return buf;
}

std::string fmt_ratio(double r) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", r);
  return buf;
}

// One ledger record plus its recomputed deterministic checksum (the loader
// already verified it matches the stored one).
struct Run {
  ExperimentResult result;
  std::string checksum;
  fiveg::obs::prof::Summary prof;
};

struct PerExperiment {
  std::size_t runs = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t timed_out = 0;
  // Distinct deterministic checksums among ok runs, per seed: more than
  // one for any seed means the experiment is not deterministic.
  std::map<std::uint64_t, std::set<std::string>> ok_checksums_by_seed;

  [[nodiscard]] bool mixed_status() const {
    return (ok > 0) + (failed > 0) + (timed_out > 0) > 1;
  }
  [[nodiscard]] bool nondeterministic() const {
    for (const auto& [seed, sums] : ok_checksums_by_seed) {
      (void)seed;
      if (sums.size() > 1) return true;
    }
    return false;
  }
};

struct LabelAgg {
  std::uint64_t events = 0;
  double total_ms = 0.0;
};

// Ledger <-> store audit result. Entries are "name seed=N" keys.
struct StoreAudit {
  std::size_t files = 0;
  std::size_t records = 0;
  std::vector<std::string> missing;     // in ledger, absent from store
  std::vector<std::string> duplicated;  // >1 store record for one run
  std::vector<std::string> orphaned;    // store record with no ledger run
  [[nodiscard]] bool ok() const {
    return missing.empty() && duplicated.empty() && orphaned.empty();
  }
};

std::string run_key(const std::string& name, std::uint64_t seed) {
  return name + " seed=" + std::to_string(seed);
}

// Cross-checks the canonical store view against the ledger: every
// ledgered run — the store keeps failed runs too, their error string is
// part of the deterministic payload — must have exactly one store record
// at its (experiment, seed), and every store record must be backed by a
// ledgered run. Duplicate ledger lines for one key (a crash re-run) are
// one logical run.
StoreAudit audit_store(const std::string& store_dir,
                       const std::vector<Run>& runs, bool* load_failed) {
  StoreAudit audit;
  fiveg::core::StoreDirLoad load = fiveg::core::load_store_dir(store_dir);
  if (!load.ok()) {
    std::cerr << "fiveg_prof: " << load.error << "\n";
    *load_failed = true;
    return audit;
  }
  const std::vector<fiveg::core::StoreRecord> records =
      fiveg::core::canonical_view(std::move(load.records));
  audit.files = load.files.size();
  audit.records = records.size();

  std::map<std::string, std::size_t> store_count;
  for (const fiveg::core::StoreRecord& rec : records) {
    ++store_count[run_key(rec.result.name, rec.result.seed)];
  }
  std::set<std::string> ledgered;
  for (const Run& run : runs) {
    ledgered.insert(run_key(run.result.name, run.result.seed));
  }
  for (const std::string& key : ledgered) {
    const auto it = store_count.find(key);
    if (it == store_count.end()) {
      audit.missing.push_back(key);
    } else if (it->second > 1) {
      audit.duplicated.push_back(key);
    }
  }
  for (const auto& [key, n] : store_count) {
    (void)n;
    if (ledgered.find(key) == ledgered.end()) {
      audit.orphaned.push_back(key);
    }
  }
  return audit;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string store_dir;
  std::uint64_t top = 10;
  bool as_json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--store" && i + 1 < argc) {
      store_dir = argv[++i];
    } else if (arg == "--top" && i + 1 < argc) {
      if (!fiveg::obs::parse_u64(argv[++i], &top) || top == 0) {
        std::cerr << "bad --top value: " << argv[i] << "\n";
        return 2;
      }
    } else if (arg == "--json") {
      as_json = true;
    } else if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n" << kUsage;
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "fiveg_prof: no ledger files\n" << kUsage;
    return 2;
  }

  std::vector<Run> runs;
  std::size_t dropped = 0;
  std::size_t corrupt = 0;
  bool truncated = false;
  for (const std::string& path : paths) {
    fiveg::core::LedgerLoad load = fiveg::core::load_ledger(path);
    if (!load.ok()) {
      std::cerr << "fiveg_prof: " << load.error << "\n";
      return 2;
    }
    dropped += load.dropped_lines;
    corrupt += load.corrupt_records;
    truncated |= load.truncated_tail;
    for (ExperimentResult& r : load.records) {
      Run run;
      run.checksum = fiveg::core::ledger_checksum(r);
      run.prof = fiveg::obs::prof::summarize(r.profile);
      run.result = std::move(r);
      runs.push_back(std::move(run));
    }
  }
  if (dropped > 0 || corrupt > 0 || truncated) {
    std::cerr << "fiveg_prof: skipped " << dropped << " unparseable line(s), "
              << corrupt << " corrupt record(s)"
              << (truncated ? ", torn final line" : "") << "\n";
  }

  // Aggregate.
  std::map<std::string, PerExperiment> per_exp;
  std::map<std::string, LabelAgg> labels;
  double total_wall_ms = 0;
  std::uint64_t peak_rss_kb = 0;
  for (const Run& run : runs) {
    const ExperimentResult& r = run.result;
    PerExperiment& e = per_exp[r.name];
    ++e.runs;
    switch (r.status) {
      case RunStatus::kOk:
        ++e.ok;
        e.ok_checksums_by_seed[r.seed].insert(run.checksum);
        break;
      case RunStatus::kFailed:
        ++e.failed;
        break;
      case RunStatus::kTimedOut:
        ++e.timed_out;
        break;
    }
    total_wall_ms += r.wall_ms;
    peak_rss_kb = std::max(peak_rss_kb, r.peak_rss_kb);
    for (const fiveg::obs::prof::LabelRow& row :
         fiveg::obs::prof::label_rows(r.profile)) {
      LabelAgg& agg = labels[row.label];
      agg.events += row.events;
      agg.total_ms += row.total_ms;
    }
  }

  std::vector<const Run*> slowest;
  slowest.reserve(runs.size());
  for (const Run& run : runs) slowest.push_back(&run);
  std::sort(slowest.begin(), slowest.end(), [](const Run* a, const Run* b) {
    if (a->result.wall_ms != b->result.wall_ms) {
      return a->result.wall_ms > b->result.wall_ms;
    }
    return a->result.name < b->result.name;
  });
  if (slowest.size() > top) slowest.resize(top);

  std::vector<std::pair<std::string, LabelAgg>> label_rows(labels.begin(),
                                                           labels.end());
  std::sort(label_rows.begin(), label_rows.end(),
            [](const auto& a, const auto& b) {
              if (a.second.total_ms != b.second.total_ms) {
                return a.second.total_ms > b.second.total_ms;
              }
              return a.first < b.first;
            });
  if (label_rows.size() > top) label_rows.resize(top);

  using fiveg::obs::prof::heap_allocs_per_event;
  using fiveg::obs::prof::kHighHeapAllocsPerEvent;
  std::vector<const Run*> high_alloc;
  for (const Run& run : runs) {
    if (heap_allocs_per_event(run.prof) > kHighHeapAllocsPerEvent) {
      high_alloc.push_back(&run);
    }
  }

  std::vector<std::pair<std::string, const PerExperiment*>> flaky;
  for (const auto& [name, e] : per_exp) {
    if (e.mixed_status() || e.nondeterministic()) flaky.emplace_back(name, &e);
  }

  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t timed_out = 0;
  for (const auto& [name, e] : per_exp) {
    (void)name;
    ok += e.ok;
    failed += e.failed;
    timed_out += e.timed_out;
  }

  StoreAudit audit;
  const bool have_store = !store_dir.empty();
  if (have_store) {
    bool load_failed = false;
    audit = audit_store(store_dir, runs, &load_failed);
    if (load_failed) return 2;
  }
  const bool audit_failed = have_store && !audit.ok();

  if (as_json) {
    fiveg::measure::JsonWriter w(std::cout);
    w.begin_object();
    w.kv("schema", "fiveg-prof/v1");
    w.key("summary");
    w.begin_object();
    w.kv("records", static_cast<std::uint64_t>(runs.size()));
    w.kv("experiments", static_cast<std::uint64_t>(per_exp.size()));
    w.kv("ok", static_cast<std::uint64_t>(ok));
    w.kv("failed", static_cast<std::uint64_t>(failed));
    w.kv("timed_out", static_cast<std::uint64_t>(timed_out));
    w.kv("total_wall_ms", total_wall_ms);
    w.kv("peak_rss_kb", peak_rss_kb);
    w.kv("dropped_lines", static_cast<std::uint64_t>(dropped));
    w.kv("corrupt_records", static_cast<std::uint64_t>(corrupt));
    w.kv("truncated_tail", truncated);
    w.end_object();
    w.key("slowest");
    w.begin_array();
    for (const Run* run : slowest) {
      const ExperimentResult& r = run->result;
      w.begin_object();
      w.kv("name", r.name);
      w.kv("status", to_string(r.status));
      w.kv("wall_ms", r.wall_ms);
      w.kv("peak_rss_kb", r.peak_rss_kb);
      w.kv("construct_ms", run->prof.construct_ms);
      w.kv("simulate_ms", run->prof.simulate_ms);
      w.kv("report_ms", run->prof.report_ms);
      w.kv("events_scheduled", run->prof.events_scheduled);
      w.kv("top_label", run->prof.top_label);
      w.end_object();
    }
    w.end_array();
    w.key("labels");
    w.begin_array();
    for (const auto& [label, agg] : label_rows) {
      w.begin_object();
      w.kv("label", label);
      w.kv("events", agg.events);
      w.kv("total_ms", agg.total_ms);
      w.kv("mean_us",
           agg.events > 0
               ? agg.total_ms * 1000.0 / static_cast<double>(agg.events)
               : 0.0);
      w.end_object();
    }
    w.end_array();
    w.key("high_heap_allocs");
    w.begin_object();
    w.kv("threshold", kHighHeapAllocsPerEvent);
    w.key("runs");
    w.begin_array();
    for (const Run* run : high_alloc) {
      w.begin_object();
      w.kv("name", run->result.name);
      w.kv("seed", run->result.seed);
      w.kv("events_scheduled", run->prof.events_scheduled);
      w.kv("heap_allocs", run->prof.heap_allocs);
      w.kv("allocs_per_event", heap_allocs_per_event(run->prof));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    w.key("flaky");
    w.begin_array();
    for (const auto& [name, e] : flaky) {
      w.begin_object();
      w.kv("name", name);
      w.kv("runs", static_cast<std::uint64_t>(e->runs));
      w.kv("ok", static_cast<std::uint64_t>(e->ok));
      w.kv("failed", static_cast<std::uint64_t>(e->failed));
      w.kv("timed_out", static_cast<std::uint64_t>(e->timed_out));
      w.kv("nondeterministic", e->nondeterministic());
      w.end_object();
    }
    w.end_array();
    if (have_store) {
      w.key("store");
      w.begin_object();
      w.kv("files", static_cast<std::uint64_t>(audit.files));
      w.kv("records", static_cast<std::uint64_t>(audit.records));
      const auto string_array = [&w](const char* key,
                                     const std::vector<std::string>& keys) {
        w.key(key);
        w.begin_array();
        for (const std::string& k : keys) w.value(k);
        w.end_array();
      };
      string_array("missing", audit.missing);
      string_array("duplicated", audit.duplicated);
      string_array("orphaned", audit.orphaned);
      w.kv("consistent", audit.ok());
      w.end_object();
    }
    w.end_object();
    std::cout << "\n";
    return flaky.empty() && !audit_failed ? 0 : 1;
  }

  std::cout << "campaign: " << runs.size() << " record(s), " << per_exp.size()
            << " experiment(s): " << ok << " ok, " << failed << " failed, "
            << timed_out << " timed out; total wall "
            << fmt_ms(total_wall_ms) << " ms, peak RSS " << peak_rss_kb
            << " kB\n\n";

  {
    fiveg::measure::TextTable table(
        "slowest runs",
        {"experiment", "status", "wall ms", "construct", "simulate",
         "report", "peak kB", "top label"});
    for (const Run* run : slowest) {
      const ExperimentResult& r = run->result;
      table.add_row({r.name, std::string(to_string(r.status)),
                     fmt_ms(r.wall_ms), fmt_ms(run->prof.construct_ms),
                     fmt_ms(run->prof.simulate_ms),
                     fmt_ms(run->prof.report_ms),
                     std::to_string(r.peak_rss_kb), run->prof.top_label});
    }
    table.print(std::cout);
  }

  if (!label_rows.empty()) {
    fiveg::measure::TextTable table(
        "event labels by wall time",
        {"label", "events", "total ms", "mean us"});
    for (const auto& [label, agg] : label_rows) {
      table.add_row(
          {label, std::to_string(agg.events), fmt_ms(agg.total_ms),
           fmt_us(agg.events > 0 ? agg.total_ms * 1000.0 /
                                       static_cast<double>(agg.events)
                                 : 0.0)});
    }
    table.print(std::cout);
  }

  if (!high_alloc.empty()) {
    std::cout << "warning: " << high_alloc.size()
              << " run(s) heap-allocate for more than "
              << fmt_ms(100.0 * kHighHeapAllocsPerEvent)
              << "% of their scheduled events\n";
    fiveg::measure::TextTable table(
        "high heap allocation",
        {"experiment", "seed", "events", "heap allocs", "allocs/event"});
    for (const Run* run : high_alloc) {
      table.add_row({run->result.name, std::to_string(run->result.seed),
                     std::to_string(run->prof.events_scheduled),
                     std::to_string(run->prof.heap_allocs),
                     fmt_ratio(heap_allocs_per_event(run->prof))});
    }
    table.print(std::cout);
  }

  if (!flaky.empty()) {
    fiveg::measure::TextTable table(
        "flaky experiments",
        {"experiment", "runs", "ok", "failed", "timed out", "verdict"});
    for (const auto& [name, e] : flaky) {
      table.add_row({name, std::to_string(e->runs), std::to_string(e->ok),
                     std::to_string(e->failed), std::to_string(e->timed_out),
                     e->nondeterministic() ? "nondeterministic"
                                           : "mixed status"});
    }
    table.print(std::cout);
  } else {
    std::cout << "no flaky experiments\n";
  }

  if (have_store) {
    std::cout << "\nstore: " << audit.records << " record(s) across "
              << audit.files << " shard(s)\n";
    const auto report = [](const char* what,
                           const std::vector<std::string>& keys) {
      for (const std::string& key : keys) {
        std::cout << "  " << what << ": " << key << "\n";
      }
    };
    report("MISSING from store (in ledger)", audit.missing);
    report("DUPLICATED in store", audit.duplicated);
    report("ORPHANED in store (no ledger run)", audit.orphaned);
    std::cout << (audit.ok() ? "ledger and store agree\n"
                             : "ledger/store MISMATCH\n");
  }
  return flaky.empty() && !audit_failed ? 0 : 1;
}
