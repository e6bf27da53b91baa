// Per-figure KPI reports built from a fiveg-runall/v5 document, plus the
// golden-baseline drift detector behind `fiveg_report --check`.
//
// Every experiment in the campaign maps to one FigureReport: a flat,
// sorted {metric name -> value} table assembled generically from the
// experiment's deterministic outputs — the flat `counters` object (which
// already carries digest percentile ladders as `name.p05`-style keys) and
// summary statistics of each KPI series. Because only kSim data feeds the
// table, a report is byte-identical for any --jobs value, which is what
// lets the determinism tier diff report artifacts directly.
//
// Goldens are per-figure JSON files (bench/golden/<figure>.json) holding
// {value, rel_tol, abs_tol} per metric. A metric passes when
// |actual - expected| <= abs_tol + rel_tol * |expected|; anything else —
// including metrics that appear or disappear — is drift.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/json_check.h"

namespace fiveg::report {

/// One figure/table artifact: the experiment's deterministic KPI table.
struct FigureReport {
  std::string id;           // experiment name, e.g. "fig7_throughput"
  std::string paper_ref;    // e.g. "Figure 7"
  std::string description;  // one-line experiment description
  std::string status;       // "ok" / "failed" / "timed_out"
  // Sorted metric table: every numeric key of the experiment's `counters`
  // object plus `series.<name>.{count,mean,min,max,last}` per KPI series.
  std::map<std::string, double> metrics;
};

/// Result of building reports from a runall document.
struct BuildResult {
  std::vector<FigureReport> figures;  // sorted by id
  std::string error;                  // nonempty on schema mismatch
  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Builds one FigureReport per experiment from a parsed fiveg-runall
/// document (schema v5); any other version is an error naming the
/// offending schema string and the supported list.
[[nodiscard]] BuildResult build_reports(const obs::JsonValue& doc);

/// Per-metric drift tolerance; pass iff
/// |actual - expected| <= abs_tol + rel_tol * |expected|.
struct Tolerance {
  double rel_tol = 0.05;
  double abs_tol = 1e-9;
};

/// Default tolerance for a metric value: integer-valued metrics (event
/// counts, residency milliseconds) get abs_tol 1.5 so a single-count
/// wobble from cross-platform libm jitter never flags; everything else is
/// rel_tol-only, keeping small fractions (coverage holes) sensitive.
[[nodiscard]] Tolerance default_tolerance(double value);

/// One expected metric in a golden baseline.
struct GoldenEntry {
  double value = 0.0;
  Tolerance tol;
};

/// Parsed golden baseline for one figure.
struct GoldenFigure {
  std::string id;
  std::string status = "ok";
  std::map<std::string, GoldenEntry> metrics;
};

/// One detected deviation from the golden baseline.
struct Drift {
  enum class Kind {
    kValue,          // metric outside tolerance
    kMissingMetric,  // in golden, absent from the report
    kNewMetric,      // in the report, absent from golden
    kStatus,         // experiment status changed
  };
  Kind kind = Kind::kValue;
  std::string figure;
  std::string metric;      // empty for kStatus
  double expected = 0.0;   // kValue / kMissingMetric
  double actual = 0.0;     // kValue / kNewMetric
  Tolerance tol;           // kValue
  [[nodiscard]] std::string describe() const;
};

/// Compares one report against its golden. Empty result = no drift.
[[nodiscard]] std::vector<Drift> check_figure(const FigureReport& report,
                                              const GoldenFigure& golden);

/// Parses a golden file (schema "fiveg-golden/v1"). Returns false and
/// fills `error` on malformed input.
[[nodiscard]] bool parse_golden(const obs::JsonValue& doc,
                                GoldenFigure* out, std::string* error);

/// Machine-readable per-figure artifact (schema "fiveg-report/v1").
void write_figure_json(const FigureReport& report, std::ostream& os);

/// CSV artifact: `figure,metric,value` rows (header included).
void write_figure_csv(const FigureReport& report, std::ostream& os);

/// Golden baseline for a report, with default_tolerance() per metric.
void write_golden_json(const FigureReport& report, std::ostream& os);

}  // namespace fiveg::report
