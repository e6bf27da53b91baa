// perfbench: the repository benchmark's binary.
//
//   perfbench --workload tcp_bulk|udp_flood|city_cohort|campaign_smoke
//             --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--golden-dir DIR]
//             [--sabotage checksum|invariant]
//
// Prints the generated inputs, a diagnostic line (checksum, iterations,
// per-iteration wall times, laps, failed checks), and as its last line one
// JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Failed correctness checks are counted, never fatal; exit
// code 2 is a usage error, 1 a workload that could not run at all.
// --sabotage breaks a checksum or an invariant on purpose, for the
// benchmark's own tests.
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;

int usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload "
               "tcp_bulk|udp_flood|city_cohort|campaign_smoke --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--golden-dir DIR] "
               "[--sabotage checksum|invariant]\n";
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 10);
  return errno == 0 && *end == '\0';
}

// Times are scaled to a host running at the gauge's nominal speed.
std::vector<Metric> end_to_end(const Outcome& out) {
  const double scale = 1.0 / out.host_slowdown;
  const double wall =
      perfbench::lapwise_quantile(out.laps, perfbench::kReportQuantile) *
      scale;
  const std::map<std::string, double> values = {
      {"wall_s", wall},
      {"setup_s",
       perfbench::quantile(out.setup_s, perfbench::kReportQuantile) * scale},
      {"units_per_s", wall > 0 ? out.units / wall : 0.0},
      {"peak_rss_mb", static_cast<double>(out.peak_rss_kb) / 1024.0},
  };
  std::vector<Metric> rows;
  for (const auto& [name, unit] : perfbench::end_to_end_metric_specs()) {
    rows.push_back({name, values.at(name), unit});
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, &opt.seed)) return usage("bad --seed " + value);
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, &n) || n == 0 || n > 3600) {
        return usage("bad --seconds " + value);
      }
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      opt.trace = value == "1";
      have_trace = true;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else if (arg == "--golden-dir") {
      opt.golden_dir = value;
    } else if (arg == "--sabotage") {
      if (value == "checksum") {
        opt.sabotage = perfbench::Sabotage::kChecksum;
      } else if (value == "invariant") {
        opt.sabotage = perfbench::Sabotage::kInvariant;
      } else {
        return usage("bad --sabotage " + value);
      }
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  using RunFn = Outcome (*)(const Options&);
  const std::map<std::string, RunFn> workloads = {
      {"tcp_bulk", perfbench::run_tcp_bulk},
      {"udp_flood", perfbench::run_udp_flood},
      {"city_cohort", perfbench::run_city_cohort},
      {"campaign_smoke", perfbench::run_campaign_smoke},
  };
  const auto it = workloads.find(workload);
  if (it == workloads.end()) return usage("unknown workload '" + workload + "'");

  Outcome out;
  try {
    out = it->second(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed to run: " << e.what()
              << "\n";
    return 1;
  }

  std::vector<Metric> metrics = opt.trace ? out.layers.rows() : end_to_end(out);
  for (const Metric& m : metrics) {
    // End-to-end readings are times, rates and sizes: never 0.
    const bool ok = std::isfinite(m.value) && (opt.trace || m.value > 0);
    out.checks.require(ok, "metric " + m.name + " reads " +
                               perfbench::format_double(m.value));
  }

  std::cout << "inputs {\"workload\": " << json_string(workload)
            << ", \"seed\": " << opt.seed;
  for (const auto& [key, value] : out.inputs) {
    std::cout << ", " << json_string(key) << ": " << json_string(value);
  }
  std::cout << "}\n";
  const auto attempted = out.checks.attempted();
  const auto failed = out.checks.failed();
  std::cout << "info {\"checksum\": " << json_string(out.checksum)
            << ", \"traced_checksum\": " << json_string(out.traced_checksum)
            << ", \"iterations\": " << out.iterations
            << ", \"traced_iterations\": " << out.traced_iterations
            << ", \"units_per_iteration\": "
            << perfbench::format_double(out.units)
            << ", \"unit\": " << json_string(out.unit_name)
            << ", \"threads\": " << out.threads
            << ", \"failed_frac\": "
            << perfbench::format_double(
                   attempted > 0 ? static_cast<double>(failed) /
                                       static_cast<double>(attempted)
                                 : 0.0)
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency()
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"iteration_wall_s\": [";
  for (std::size_t i = 0; i < out.wall_s.size(); ++i) {
    std::cout << (i > 0 ? ", " : "")
              << perfbench::format_double(out.wall_s[i]);
  }
  std::cout << "], \"laps_per_iteration\": "
            << (out.laps.empty() ? 0 : out.laps.front().size())
            << ", \"host_slowdown\": "
            << perfbench::format_double(out.host_slowdown)
            << ", \"gauge_digest\": " << out.gauge_digest
            << ", \"failures\": [";
  for (std::size_t i = 0; i < out.checks.failures().size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << json_string(out.checks.failures()[i]);
  }
  std::cout << "]}\n";

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << json_string(metrics[i].name)
              << ": {\"value\": " << perfbench::format_double(metrics[i].value)
              << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
