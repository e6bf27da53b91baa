// Per-figure KPI report generator and golden-baseline drift detector.
//
// Consumes a fiveg-runall/v5 JSON document (fiveg_runall --json, or
// `fiveg_query STORE --export-runall-json` for a columnar store) and emits
// one machine-readable artifact pair per paper figure/table:
//   <out-dir>/<figure>.json   (schema fiveg-report/v1)
//   <out-dir>/<figure>.csv    (figure,metric,value rows)
//
// With --check, each figure is also compared against its committed golden
// baseline (<golden-dir>/<figure>.json, schema fiveg-golden/v1); any
// out-of-tolerance metric, missing/new metric, status change or missing
// golden prints a per-metric diff and exits non-zero. --update-golden
// rewrites the baselines from the current run instead.
//
// usage: fiveg_report --in results.json
//                     [--out-dir DIR] [--check | --update-golden]
//                     [--golden-dir DIR] [--quiet]
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_check.h"
#include "report/report.h"

namespace {

namespace fs = std::filesystem;
using fiveg::report::Drift;
using fiveg::report::FigureReport;
using fiveg::report::GoldenFigure;

int usage(int code) {
  std::cerr << "usage: fiveg_report --in results.json [--out-dir DIR]\n"
               "                    [--check | --update-golden] "
               "[--golden-dir DIR] [--quiet]\n";
  return code;
}

bool read_file(const fs::path& path, std::string* out, std::string* error) {
  std::ifstream f(path);
  if (!f) {
    *error = "cannot open " + path.string();
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

bool write_file(const fs::path& path, const std::string& content,
                std::string* error) {
  std::ofstream f(path);
  if (!f) {
    *error = "cannot write " + path.string();
    return false;
  }
  f << content;
  f.close();
  if (!f) {
    *error = "write failed for " + path.string();
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string in_path;
  std::string out_dir;
  std::string golden_dir;
  bool check = false;
  bool update_golden = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--in" && i + 1 < argc) {
      in_path = argv[++i];
    } else if (arg == "--out-dir" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--golden-dir" && i + 1 < argc) {
      golden_dir = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--update-golden") {
      update_golden = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "-h" || arg == "--help") {
      return usage(0);
    } else {
      std::cerr << "fiveg_report: unknown argument '" << arg << "'\n";
      return usage(2);
    }
  }
  if (in_path.empty()) {
    std::cerr << "fiveg_report: --in is required\n";
    return usage(2);
  }
  if (check && update_golden) {
    std::cerr << "fiveg_report: --check and --update-golden are exclusive\n";
    return usage(2);
  }
  if ((check || update_golden) && golden_dir.empty()) {
    std::cerr << "fiveg_report: --golden-dir is required with --check / "
                 "--update-golden\n";
    return usage(2);
  }

  std::string text;
  std::string error;
  if (!read_file(in_path, &text, &error)) {
    std::cerr << "fiveg_report: " << error << "\n";
    return 2;
  }
  const auto doc = fiveg::obs::json_parse(text, &error);
  if (doc == nullptr) {
    std::cerr << "fiveg_report: " << in_path << ": " << error << "\n";
    return 2;
  }
  const fiveg::report::BuildResult built = fiveg::report::build_reports(*doc);
  if (!built.ok()) {
    std::cerr << "fiveg_report: " << in_path << ": " << built.error << "\n";
    return 2;
  }

  if (!out_dir.empty()) {
    std::error_code ec;
    fs::create_directories(out_dir, ec);
    if (ec) {
      std::cerr << "fiveg_report: cannot create " << out_dir << ": "
                << ec.message() << "\n";
      return 2;
    }
    for (const FigureReport& fig : built.figures) {
      std::ostringstream json;
      fiveg::report::write_figure_json(fig, json);
      std::ostringstream csv;
      fiveg::report::write_figure_csv(fig, csv);
      if (!write_file(fs::path(out_dir) / (fig.id + ".json"), json.str(),
                      &error) ||
          !write_file(fs::path(out_dir) / (fig.id + ".csv"), csv.str(),
                      &error)) {
        std::cerr << "fiveg_report: " << error << "\n";
        return 2;
      }
    }
    if (!quiet) {
      std::cout << "fiveg_report: wrote " << built.figures.size()
                << " figure artifact pairs to " << out_dir << "\n";
    }
  }

  if (update_golden) {
    std::error_code ec;
    fs::create_directories(golden_dir, ec);
    if (ec) {
      std::cerr << "fiveg_report: cannot create " << golden_dir << ": "
                << ec.message() << "\n";
      return 2;
    }
    for (const FigureReport& fig : built.figures) {
      std::ostringstream golden;
      fiveg::report::write_golden_json(fig, golden);
      if (!write_file(fs::path(golden_dir) / (fig.id + ".json"),
                      golden.str(), &error)) {
        std::cerr << "fiveg_report: " << error << "\n";
        return 2;
      }
    }
    if (!quiet) {
      std::cout << "fiveg_report: updated " << built.figures.size()
                << " goldens in " << golden_dir << "\n";
    }
    return 0;
  }

  if (!check) return 0;

  std::vector<Drift> drifts;
  std::size_t missing_goldens = 0;
  for (const FigureReport& fig : built.figures) {
    const fs::path golden_path = fs::path(golden_dir) / (fig.id + ".json");
    std::string golden_text;
    if (!read_file(golden_path, &golden_text, &error)) {
      std::cerr << "fiveg_report: no golden for " << fig.id << " ("
                << golden_path.string()
                << " missing; seed it with --update-golden)\n";
      ++missing_goldens;
      continue;
    }
    const auto golden_doc = fiveg::obs::json_parse(golden_text, &error);
    if (golden_doc == nullptr) {
      std::cerr << "fiveg_report: " << golden_path.string() << ": " << error
                << "\n";
      ++missing_goldens;
      continue;
    }
    GoldenFigure golden;
    if (!fiveg::report::parse_golden(*golden_doc, &golden, &error)) {
      std::cerr << "fiveg_report: " << golden_path.string() << ": " << error
                << "\n";
      ++missing_goldens;
      continue;
    }
    const std::vector<Drift> figure_drifts =
        fiveg::report::check_figure(fig, golden);
    for (const Drift& d : figure_drifts) {
      std::cerr << "fiveg_report: DRIFT " << d.describe() << "\n";
    }
    drifts.insert(drifts.end(), figure_drifts.begin(), figure_drifts.end());
  }

  if (!drifts.empty() || missing_goldens > 0) {
    std::cerr << "fiveg_report: " << drifts.size() << " drifting metric(s), "
              << missing_goldens << " unreadable/missing golden(s) across "
              << built.figures.size() << " figures\n";
    return 1;
  }
  if (!quiet) {
    std::cout << "fiveg_report: " << built.figures.size()
              << " figures match golden baselines\n";
  }
  return 0;
}
