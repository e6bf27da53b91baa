#include "report/report.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "measure/json.h"

namespace fiveg::report {

namespace {

// 2^53: beyond this doubles cannot hold every integer, so "integer-valued"
// stops being meaningful for the count heuristic below.
constexpr double kExactIntLimit = 9007199254740992.0;

void add_series_stats(const obs::JsonValue& series,
                      std::map<std::string, double>* metrics) {
  const obs::JsonValue* name = series.get("name");
  const obs::JsonValue* points = series.get("points");
  if (name == nullptr || !name->is(obs::JsonValue::Type::kString) ||
      points == nullptr || !points->is(obs::JsonValue::Type::kArray)) {
    return;
  }
  double sum = 0.0, min = 0.0, max = 0.0, last = 0.0;
  std::size_t n = 0;
  for (const obs::JsonValue& p : points->array) {
    if (!p.is(obs::JsonValue::Type::kArray) || p.array.size() != 2 ||
        !p.array[1].is(obs::JsonValue::Type::kNumber)) {
      continue;
    }
    const double y = p.array[1].number;
    if (n == 0) {
      min = max = y;
    } else {
      if (y < min) min = y;
      if (y > max) max = y;
    }
    sum += y;
    last = y;
    ++n;
  }
  const std::string prefix = "series." + name->string;
  (*metrics)[prefix + ".count"] = static_cast<double>(n);
  if (n > 0) {
    (*metrics)[prefix + ".mean"] = sum / static_cast<double>(n);
    (*metrics)[prefix + ".min"] = min;
    (*metrics)[prefix + ".max"] = max;
    (*metrics)[prefix + ".last"] = last;
  }
}

std::string json_number(double v) { return measure::JsonWriter::number(v); }

// CSV quoting is unnecessary here: metric names are code-chosen
// identifiers (no commas/quotes), values are JSON numbers.
void write_csv_row(std::ostream& os, const std::string& figure,
                   const std::string& metric, double value) {
  os << figure << ',' << metric << ',' << json_number(value) << '\n';
}

// Parses the body of a fiveg-runall/v5 document (the caller has checked
// the schema) into `out` (error or figures).
void build_from_runall(const obs::JsonValue& doc, BuildResult& out) {
  const obs::JsonValue* experiments = doc.get("experiments");
  if (experiments == nullptr ||
      !experiments->is(obs::JsonValue::Type::kArray)) {
    out.error = "missing \"experiments\" array";
    return;
  }
  for (const obs::JsonValue& e : experiments->array) {
    if (!e.is(obs::JsonValue::Type::kObject)) continue;
    FigureReport fig;
    if (const obs::JsonValue* v = e.get("name");
        v != nullptr && v->is(obs::JsonValue::Type::kString)) {
      fig.id = v->string;
    }
    if (fig.id.empty()) continue;
    if (const obs::JsonValue* v = e.get("paper_ref");
        v != nullptr && v->is(obs::JsonValue::Type::kString)) {
      fig.paper_ref = v->string;
    }
    if (const obs::JsonValue* v = e.get("description");
        v != nullptr && v->is(obs::JsonValue::Type::kString)) {
      fig.description = v->string;
    }
    if (const obs::JsonValue* v = e.get("status");
        v != nullptr && v->is(obs::JsonValue::Type::kString)) {
      fig.status = v->string;
    }
    // Every flat counter key — plain counters, gauge maxima and the
    // digest percentile ladders all arrive here. `profile`
    // (wall clock) is deliberately ignored: reports must be
    // parallelism-independent.
    if (const obs::JsonValue* counters = e.get("counters");
        counters != nullptr && counters->is(obs::JsonValue::Type::kObject)) {
      for (const auto& [key, value] : counters->object) {
        if (value.is(obs::JsonValue::Type::kNumber)) {
          fig.metrics[key] = value.number;
        }
      }
    }
    if (const obs::JsonValue* metrics = e.get("metrics");
        metrics != nullptr && metrics->is(obs::JsonValue::Type::kArray)) {
      for (const obs::JsonValue& s : metrics->array) {
        add_series_stats(s, &fig.metrics);
      }
    }
    out.figures.push_back(std::move(fig));
  }
  std::sort(out.figures.begin(), out.figures.end(),
            [](const FigureReport& a, const FigureReport& b) {
              return a.id < b.id;
            });
}

}  // namespace

BuildResult build_reports(const obs::JsonValue& doc) {
  BuildResult out;
  if (!doc.is(obs::JsonValue::Type::kObject)) {
    out.error = "top-level value is not an object";
    return out;
  }
  const obs::JsonValue* schema = doc.get("schema");
  if (schema == nullptr || !schema->is(obs::JsonValue::Type::kString)) {
    out.error = "missing \"schema\" string";
    return out;
  }
  if (schema->string != "fiveg-runall/v5") {
    out.error = "unsupported schema \"" + schema->string +
                "\" (supported: fiveg-runall/v5; re-run fiveg_runall or "
                "upgrade fiveg_report)";
    return out;
  }
  build_from_runall(doc, out);
  return out;
}

Tolerance default_tolerance(double value) {
  Tolerance t;
  if (std::abs(value) < kExactIntLimit && value == std::floor(value)) {
    // Counts: absorb a +-1 wobble (libm differences across platforms can
    // shift one sample over a threshold) without relaxing rel_tol.
    t.abs_tol = 1.5;
  }
  return t;
}

std::string Drift::describe() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kValue:
      os << figure << ": " << metric << " = " << json_number(actual)
         << ", expected " << json_number(expected) << " (rel_tol "
         << json_number(tol.rel_tol) << ", abs_tol "
         << json_number(tol.abs_tol) << ")";
      break;
    case Kind::kMissingMetric:
      os << figure << ": " << metric << " missing (golden expects "
         << json_number(expected) << ")";
      break;
    case Kind::kNewMetric:
      os << figure << ": " << metric << " = " << json_number(actual)
         << " is new (not in golden; refresh with --update-golden)";
      break;
    case Kind::kStatus:
      os << figure << ": status changed";
      break;
  }
  return os.str();
}

std::vector<Drift> check_figure(const FigureReport& report,
                                const GoldenFigure& golden) {
  std::vector<Drift> drifts;
  if (report.status != golden.status) {
    Drift d;
    d.kind = Drift::Kind::kStatus;
    d.figure = report.id;
    drifts.push_back(std::move(d));
  }
  for (const auto& [name, entry] : golden.metrics) {
    const auto it = report.metrics.find(name);
    if (it == report.metrics.end()) {
      Drift d;
      d.kind = Drift::Kind::kMissingMetric;
      d.figure = report.id;
      d.metric = name;
      d.expected = entry.value;
      drifts.push_back(std::move(d));
      continue;
    }
    const double diff = std::abs(it->second - entry.value);
    const double allowed =
        entry.tol.abs_tol + entry.tol.rel_tol * std::abs(entry.value);
    if (!(diff <= allowed)) {  // NaN diff also flags
      Drift d;
      d.kind = Drift::Kind::kValue;
      d.figure = report.id;
      d.metric = name;
      d.expected = entry.value;
      d.actual = it->second;
      d.tol = entry.tol;
      drifts.push_back(std::move(d));
    }
  }
  for (const auto& [name, value] : report.metrics) {
    if (golden.metrics.find(name) == golden.metrics.end()) {
      Drift d;
      d.kind = Drift::Kind::kNewMetric;
      d.figure = report.id;
      d.metric = name;
      d.actual = value;
      drifts.push_back(std::move(d));
    }
  }
  return drifts;
}

bool parse_golden(const obs::JsonValue& doc, GoldenFigure* out,
                  std::string* error) {
  const auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (!doc.is(obs::JsonValue::Type::kObject)) {
    return fail("golden is not an object");
  }
  const obs::JsonValue* schema = doc.get("schema");
  if (schema == nullptr || !schema->is(obs::JsonValue::Type::kString) ||
      schema->string != "fiveg-golden/v1") {
    return fail("golden schema is not fiveg-golden/v1");
  }
  const obs::JsonValue* figure = doc.get("figure");
  if (figure == nullptr || !figure->is(obs::JsonValue::Type::kString)) {
    return fail("golden missing \"figure\" string");
  }
  out->id = figure->string;
  if (const obs::JsonValue* status = doc.get("status");
      status != nullptr && status->is(obs::JsonValue::Type::kString)) {
    out->status = status->string;
  }
  const obs::JsonValue* metrics = doc.get("metrics");
  if (metrics == nullptr || !metrics->is(obs::JsonValue::Type::kObject)) {
    return fail("golden missing \"metrics\" object");
  }
  for (const auto& [name, m] : metrics->object) {
    if (!m.is(obs::JsonValue::Type::kObject)) {
      return fail("golden metric \"" + name + "\" is not an object");
    }
    const obs::JsonValue* value = m.get("value");
    if (value == nullptr || !value->is(obs::JsonValue::Type::kNumber)) {
      return fail("golden metric \"" + name + "\" missing numeric value");
    }
    GoldenEntry entry;
    entry.value = value->number;
    entry.tol = default_tolerance(entry.value);
    if (const obs::JsonValue* r = m.get("rel_tol");
        r != nullptr && r->is(obs::JsonValue::Type::kNumber)) {
      entry.tol.rel_tol = r->number;
    }
    if (const obs::JsonValue* a = m.get("abs_tol");
        a != nullptr && a->is(obs::JsonValue::Type::kNumber)) {
      entry.tol.abs_tol = a->number;
    }
    out->metrics.emplace(name, entry);
  }
  return true;
}

void write_figure_json(const FigureReport& report, std::ostream& os) {
  measure::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "fiveg-report/v1");
  w.kv("figure", report.id);
  w.kv("paper_ref", report.paper_ref);
  w.kv("description", report.description);
  w.kv("status", report.status);
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, value] : report.metrics) w.kv(name, value);
  w.end_object();
  w.end_object();
  os << "\n";
}

void write_figure_csv(const FigureReport& report, std::ostream& os) {
  os << "figure,metric,value\n";
  for (const auto& [name, value] : report.metrics) {
    write_csv_row(os, report.id, name, value);
  }
}

void write_golden_json(const FigureReport& report, std::ostream& os) {
  measure::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "fiveg-golden/v1");
  w.kv("figure", report.id);
  w.kv("status", report.status);
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, value] : report.metrics) {
    const Tolerance tol = default_tolerance(value);
    w.key(name);
    w.begin_object();
    w.kv("value", value);
    w.kv("rel_tol", tol.rel_tol);
    w.kv("abs_tol", tol.abs_tol);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  os << "\n";
}

}  // namespace fiveg::report
