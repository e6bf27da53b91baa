// fiveg_query: merge and query fiveg-rs/v1 columnar result stores
// (fiveg_runall --store). Streams every shard file in a store directory,
// deduplicates and sorts into the canonical merged view — which is
// byte-identical for any shard count, completion order or --jobs value,
// because record identity is (experiment, seed, labels) and the metric
// state being merged is commutative (counter sums, digest bins) — and
// answers queries against it:
//
//   --list                 one line per record (name, seed, labels, status)
//   --list-metrics         distinct metric names across selected records
//   --filter SPEC          restrict to records matching "name{k=v,...}"
//                          (substring on the experiment name, exact label
//                          equality; either part optional)
//   --percentiles METRIC   merge METRIC's digests across selected records
//                          and print the percentile ladder
//   --export-runall-json PATH
//                          reconstruct a fiveg-runall/v5 document (timing
//                          off) from the selected records; for a store
//                          written by an unsharded campaign this is
//                          byte-identical to `fiveg_runall --json
//                          --no-timing`
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/runner.h"
#include "core/store.h"
#include "measure/json.h"
#include "obs/digest.h"
#include "obs/metrics.h"

namespace {

constexpr const char* kUsage = R"(usage: fiveg_query STORE_DIR [options]

Merges every fiveg-rs/v1 shard file under STORE_DIR into the canonical
campaign view (order-independent: any shard layout or --jobs value yields
the same bytes) and answers queries against it.

options:
  --list                one line per record: name, seed, labels, status
  --list-metrics        distinct metric names across the selected records
  --filter SPEC         restrict records to SPEC = "name{k=v,...}":
                        substring match on the experiment name, exact match
                        on each given label; both parts optional
  --percentiles METRIC  merge METRIC's digest across the selected records
                        (commutative bin-wise merge) and print
                        count/mean/min/max plus p05..p99
  --export-runall-json PATH
                        write a reconstructed fiveg-runall/v5 document
                        (timing fields off) to PATH ('-' = stdout)
  -h, --help            this message
)";

struct Filter {
  std::string name;  // substring; empty = all
  std::vector<std::pair<std::string, std::string>> labels;  // exact
};

// "name{k=v,k2=v2}" — either part may be absent.
bool parse_filter(std::string_view spec, Filter* out) {
  const std::size_t brace = spec.find('{');
  if (brace == std::string_view::npos) {
    out->name = std::string(spec);
    return true;
  }
  if (spec.back() != '}') return false;
  out->name = std::string(spec.substr(0, brace));
  std::string_view body = spec.substr(brace + 1, spec.size() - brace - 2);
  while (!body.empty()) {
    std::size_t comma = body.find(',');
    const std::string_view item =
        comma == std::string_view::npos ? body : body.substr(0, comma);
    body = comma == std::string_view::npos ? std::string_view()
                                           : body.substr(comma + 1);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) return false;
    out->labels.emplace_back(std::string(item.substr(0, eq)),
                             std::string(item.substr(eq + 1)));
  }
  return true;
}

bool matches(const fiveg::core::StoreRecord& rec, const Filter& f) {
  if (!f.name.empty() &&
      rec.result.name.find(f.name) == std::string::npos) {
    return false;
  }
  for (const auto& [key, value] : f.labels) {
    bool found = false;
    for (const auto& [k, v] : rec.labels) {
      if (k == key) {
        found = v == value;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

std::string label_string(
    const std::vector<std::pair<std::string, std::string>>& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += '=';
    out += v;
  }
  out += '}';
  return out;
}

std::string num(double v) { return fiveg::measure::JsonWriter::number(v); }

// Merges METRIC's digest state across the selected records, in canonical
// record order. Bin counts merge exactly (integer sums, commutative);
// the FP sum is made deterministic by the fixed merge order.
int print_percentiles(const std::vector<fiveg::core::StoreRecord>& records,
                      const std::string& metric) {
  fiveg::obs::Digest merged;
  std::size_t found = 0;
  for (const fiveg::core::StoreRecord& rec : records) {
    for (const fiveg::obs::MetricSnapshot& s : rec.result.counters) {
      if (s.name != metric ||
          s.kind != fiveg::obs::MetricSnapshot::Kind::kDigest) {
        continue;
      }
      merged.merge(fiveg::obs::Digest::restore(s.zero_count, s.sum, s.min,
                                               s.max, s.bins, s.neg_bins));
      ++found;
    }
  }
  if (found == 0) {
    std::cerr << "fiveg_query: no digest metric named \"" << metric
              << "\" in the selected records\n";
    return 1;
  }
  std::cout << metric << ": merged " << found << " digest(s)\n"
            << "  count " << merged.count() << "\n"
            << "  mean  " << num(merged.mean()) << "\n"
            << "  min   " << num(merged.min()) << "\n"
            << "  max   " << num(merged.max()) << "\n";
  for (const double q : {0.05, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "p%02d", static_cast<int>(q * 100));
    std::cout << "  " << buf << "   " << num(merged.quantile(q)) << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string store_dir;
  Filter filter;
  bool list = false;
  bool list_metrics = false;
  std::string percentiles_metric;
  bool have_percentiles = false;
  std::string export_path;
  bool have_export = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--list-metrics") {
      list_metrics = true;
    } else if (arg == "--filter") {
      if (!parse_filter(need_value(), &filter)) {
        std::cerr << "bad --filter value (want name{k=v,...})\n";
        return 2;
      }
    } else if (arg == "--percentiles") {
      percentiles_metric = need_value();
      have_percentiles = true;
    } else if (arg == "--export-runall-json") {
      export_path = need_value();
      have_export = true;
    } else if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option: " << arg << "\n" << kUsage;
      return 2;
    } else if (store_dir.empty()) {
      store_dir = arg;
    } else {
      std::cerr << "unexpected argument: " << arg << "\n" << kUsage;
      return 2;
    }
  }
  if (store_dir.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  if (!list && !list_metrics && !have_percentiles && !have_export) {
    std::cerr << "nothing to do (pass --list, --list-metrics, "
                 "--percentiles or --export-runall-json)\n";
    return 2;
  }

  fiveg::core::StoreDirLoad load = fiveg::core::load_store_dir(store_dir);
  if (!load.ok()) {
    std::cerr << load.error << "\n";
    return 2;
  }
  const std::size_t raw = load.records.size();
  std::vector<fiveg::core::StoreRecord> records =
      fiveg::core::canonical_view(std::move(load.records));
  std::cerr << "fiveg_query: " << load.files.size() << " shard(s), " << raw
            << " record(s), " << records.size() << " after merge";
  if (load.torn_files > 0) {
    std::cerr << "; " << load.torn_files << " shard(s) with a torn tail";
  }
  if (load.dropped_records > 0) {
    std::cerr << "; " << load.dropped_records << " undecodable record(s)";
  }
  std::cerr << "\n";

  if (!filter.name.empty() || !filter.labels.empty()) {
    std::vector<fiveg::core::StoreRecord> kept;
    for (fiveg::core::StoreRecord& rec : records) {
      if (matches(rec, filter)) kept.push_back(std::move(rec));
    }
    records = std::move(kept);
  }

  if (list) {
    for (const fiveg::core::StoreRecord& rec : records) {
      std::cout << rec.result.name << " seed=" << rec.result.seed << " "
                << label_string(rec.labels) << " "
                << fiveg::core::to_string(rec.result.status) << "\n";
    }
  }
  if (list_metrics) {
    std::set<std::string> names;
    for (const fiveg::core::StoreRecord& rec : records) {
      for (const fiveg::obs::MetricSnapshot& s : rec.result.counters) {
        const char* kind = "counter";
        switch (s.kind) {
          case fiveg::obs::MetricSnapshot::Kind::kCounter:
            break;
          case fiveg::obs::MetricSnapshot::Kind::kGauge:
            kind = "gauge";
            break;
          case fiveg::obs::MetricSnapshot::Kind::kDigest:
            kind = "digest";
            break;
        }
        names.insert(s.name + " (" + kind + ")");
      }
    }
    for (const std::string& n : names) std::cout << n << "\n";
  }
  if (have_percentiles) {
    const int rc = print_percentiles(records, percentiles_metric);
    if (rc != 0) return rc;
  }
  if (have_export) {
    fiveg::core::RunSummary summary;
    summary.results.reserve(records.size());
    for (const fiveg::core::StoreRecord& rec : records) {
      summary.results.push_back(rec.result);
    }
    if (export_path == "-") {
      fiveg::core::write_json(summary, std::cout, /*include_timing=*/false);
    } else {
      std::ofstream f(export_path);
      if (!f) {
        std::cerr << "cannot open " << export_path << " for writing\n";
        return 2;
      }
      fiveg::core::write_json(summary, f, /*include_timing=*/false);
    }
  }
  return 0;
}
