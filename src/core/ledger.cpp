#include "core/ledger.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/runner.h"
#include "measure/json.h"
#include "obs/json_check.h"
#include "obs/prof.h"
#include "sim/rng.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace fiveg::core {

namespace {

std::string to_hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return std::string(buf, 16);
}

const char* kind_name(obs::MetricSnapshot::Kind kind) {
  switch (kind) {
    case obs::MetricSnapshot::Kind::kCounter:
      return "counter";
    case obs::MetricSnapshot::Kind::kGauge:
      return "gauge";
    case obs::MetricSnapshot::Kind::kDigest:
      return "digest";
  }
  return "counter";
}

bool kind_from(const std::string& s, obs::MetricSnapshot::Kind* out) {
  if (s == "counter") *out = obs::MetricSnapshot::Kind::kCounter;
  else if (s == "gauge") *out = obs::MetricSnapshot::Kind::kGauge;
  else if (s == "digest") *out = obs::MetricSnapshot::Kind::kDigest;
  else return false;
  return true;
}

bool status_from(const std::string& s, RunStatus* out) {
  if (s == "ok") *out = RunStatus::kOk;
  else if (s == "failed") *out = RunStatus::kFailed;
  else if (s == "timed_out") *out = RunStatus::kTimedOut;
  else return false;
  return true;
}

// Faithful (not flattened) snapshot serialization: the resume path rebuilds
// MetricSnapshot structs from this, so every field the runall JSON emitters
// read must survive the round trip bit-for-bit.
void write_snapshot(measure::JsonWriter& w, const obs::MetricSnapshot& s) {
  w.begin_object();
  w.kv("name", s.name);
  w.kv("kind", kind_name(s.kind));
  w.kv("clock", s.clock == obs::MetricClock::kSim ? "sim" : "wall");
  w.kv("value", s.value);
  w.kv("max", s.max);
  w.kv("count", s.count);
  w.kv("sum", s.sum);
  w.kv("min", s.min);
  w.kv("p50", s.p50);
  w.kv("p99", s.p99);
  w.kv("p05", s.p05);
  w.kv("p25", s.p25);
  w.kv("p75", s.p75);
  w.kv("p90", s.p90);
  w.kv("p95", s.p95);
  w.kv("zero", s.zero_count);
  w.key("bins");
  write_bins_array(w, s.bins);
  w.key("neg_bins");
  write_bins_array(w, s.neg_bins);
  w.end_object();
}

void write_snapshots(measure::JsonWriter& w,
                     const std::vector<obs::MetricSnapshot>& snaps) {
  w.begin_array();
  for (const obs::MetricSnapshot& s : snaps) write_snapshot(w, s);
  w.end_array();
}

// The deterministic members, in the fixed order the checksum is defined
// over. Shared by ledger_core_json (checksum input) and ledger_line (the
// same keys inside the full record).
void write_core_members(measure::JsonWriter& w, const ExperimentResult& r) {
  w.kv("name", r.name);
  // Seeds are full-range 64-bit hashes; a JSON number survives only 53
  // bits through the double-typed parser, so the ledger stores them as
  // decimal strings.
  w.kv("seed", std::to_string(r.seed));
  w.kv("status", to_string(r.status));
  w.kv("error", r.error);
  w.kv("paper_ref", r.paper_ref);
  w.kv("description", r.description);
  w.kv("text", r.text);
  w.key("metrics");
  write_series_array(w, r.metrics);
  w.key("counters");
  write_snapshots(w, r.counters);
}

// --- parsing ---------------------------------------------------------------

using obs::JsonValue;

const std::string* get_string(const JsonValue& v, const char* key) {
  const JsonValue* m = v.get(key);
  if (m == nullptr || !m->is(JsonValue::Type::kString)) return nullptr;
  return &m->string;
}

bool get_number(const JsonValue& v, const char* key, double* out) {
  const JsonValue* m = v.get(key);
  if (m == nullptr || !m->is(JsonValue::Type::kNumber)) return false;
  *out = m->number;
  return true;
}

bool parse_bins(const JsonValue* v,
                std::vector<std::pair<std::int32_t, std::uint64_t>>* out) {
  if (v == nullptr || !v->is(JsonValue::Type::kArray)) return false;
  out->reserve(v->array.size());
  for (const JsonValue& pair : v->array) {
    if (!pair.is(JsonValue::Type::kArray) || pair.array.size() != 2 ||
        !pair.array[0].is(JsonValue::Type::kNumber) ||
        !pair.array[1].is(JsonValue::Type::kNumber)) {
      return false;
    }
    out->emplace_back(static_cast<std::int32_t>(pair.array[0].number),
                      static_cast<std::uint64_t>(pair.array[1].number));
  }
  return true;
}

bool parse_snapshot(const JsonValue& v, obs::MetricSnapshot* out) {
  if (!v.is(JsonValue::Type::kObject)) return false;
  const std::string* name = get_string(v, "name");
  const std::string* kind = get_string(v, "kind");
  const std::string* clock = get_string(v, "clock");
  if (name == nullptr || kind == nullptr || clock == nullptr) return false;
  out->name = *name;
  if (!kind_from(*kind, &out->kind)) return false;
  if (*clock == "sim") {
    out->clock = obs::MetricClock::kSim;
  } else if (*clock == "wall") {
    out->clock = obs::MetricClock::kWall;
  } else {
    return false;
  }
  double count = 0;
  double zero = 0;
  if (!get_number(v, "value", &out->value) ||
      !get_number(v, "max", &out->max) || !get_number(v, "count", &count) ||
      !get_number(v, "sum", &out->sum) || !get_number(v, "min", &out->min) ||
      !get_number(v, "p50", &out->p50) || !get_number(v, "p99", &out->p99) ||
      !get_number(v, "p05", &out->p05) || !get_number(v, "p25", &out->p25) ||
      !get_number(v, "p75", &out->p75) || !get_number(v, "p90", &out->p90) ||
      !get_number(v, "p95", &out->p95) || !get_number(v, "zero", &zero)) {
    return false;
  }
  out->count = static_cast<std::uint64_t>(count);
  out->zero_count = static_cast<std::uint64_t>(zero);
  return parse_bins(v.get("bins"), &out->bins) &&
         parse_bins(v.get("neg_bins"), &out->neg_bins);
}

bool parse_snapshots(const JsonValue* v,
                     std::vector<obs::MetricSnapshot>* out) {
  if (v == nullptr || !v->is(JsonValue::Type::kArray)) return false;
  out->reserve(v->array.size());
  for (const JsonValue& s : v->array) {
    obs::MetricSnapshot snap;
    if (!parse_snapshot(s, &snap)) return false;
    out->push_back(std::move(snap));
  }
  return true;
}

bool parse_series(const JsonValue* v, std::vector<MetricSeries>* out) {
  if (v == nullptr || !v->is(JsonValue::Type::kArray)) return false;
  out->reserve(v->array.size());
  for (const JsonValue& s : v->array) {
    if (!s.is(JsonValue::Type::kObject)) return false;
    const std::string* name = get_string(s, "name");
    const std::string* unit = get_string(s, "unit");
    const JsonValue* points = s.get("points");
    if (name == nullptr || unit == nullptr || points == nullptr ||
        !points->is(JsonValue::Type::kArray)) {
      return false;
    }
    MetricSeries series;
    series.name = *name;
    series.unit = *unit;
    series.points.reserve(points->array.size());
    for (const JsonValue& p : points->array) {
      if (!p.is(JsonValue::Type::kArray) || p.array.size() != 2 ||
          !p.array[0].is(JsonValue::Type::kNumber) ||
          !p.array[1].is(JsonValue::Type::kNumber)) {
        return false;
      }
      series.points.push_back({p.array[0].number, p.array[1].number});
    }
    out->push_back(std::move(series));
  }
  return true;
}

// Parses one ledger line into a result and verifies its checksum by
// re-serializing the deterministic core. Relies on JsonWriter's number
// rendering being a fixed point under print -> parse -> print, which it is
// (%.0f for integral values, round-tripping %.17g otherwise).
bool parse_record(const JsonValue& v, ExperimentResult* out) {
  if (!v.is(JsonValue::Type::kObject)) return false;
  const std::string* schema = get_string(v, "schema");
  if (schema == nullptr || *schema != kLedgerSchema) return false;
  const std::string* name = get_string(v, "name");
  const std::string* seed = get_string(v, "seed");
  const std::string* status = get_string(v, "status");
  const std::string* error = get_string(v, "error");
  const std::string* paper_ref = get_string(v, "paper_ref");
  const std::string* description = get_string(v, "description");
  const std::string* text = get_string(v, "text");
  if (name == nullptr || seed == nullptr || status == nullptr ||
      error == nullptr || paper_ref == nullptr || description == nullptr ||
      text == nullptr) {
    return false;
  }
  out->name = *name;
  out->error = *error;
  out->paper_ref = *paper_ref;
  out->description = *description;
  out->text = *text;
  if (!status_from(*status, &out->status)) return false;
  if (!obs::parse_u64(*seed, &out->seed)) return false;
  double wall_ms = 0;
  double peak = 0;
  if (!get_number(v, "wall_ms", &wall_ms) ||
      !get_number(v, "peak_rss_kb", &peak)) {
    return false;
  }
  out->wall_ms = wall_ms;
  out->peak_rss_kb = static_cast<std::uint64_t>(peak);
  if (!parse_series(v.get("metrics"), &out->metrics)) return false;
  if (!parse_snapshots(v.get("counters"), &out->counters)) return false;
  if (!parse_snapshots(v.get("profile"), &out->profile)) return false;
  return true;
}

}  // namespace

std::string ledger_core_json(const ExperimentResult& r) {
  std::ostringstream os;
  measure::JsonWriter w(os, /*compact=*/true);
  w.begin_object();
  write_core_members(w, r);
  w.end_object();
  return os.str();
}

std::string ledger_checksum(const ExperimentResult& r) {
  // FNV-1a catches what a ledger actually sees (torn writes, disk
  // corruption, hand edits); it is not meant to be cryptographic.
  return to_hex16(sim::fnv1a(ledger_core_json(r)));
}

std::string ledger_line(const ExperimentResult& r) {
  std::ostringstream os;
  measure::JsonWriter w(os, /*compact=*/true);
  w.begin_object();
  w.kv("schema", kLedgerSchema);
  w.kv("checksum", ledger_checksum(r));
  write_core_members(w, r);
  w.kv("wall_ms", r.wall_ms);
  w.kv("peak_rss_kb", r.peak_rss_kb);
  w.key("profile");
  write_snapshots(w, r.profile);
  // Derived convenience summary for fiveg_prof and humans paging through
  // the raw JSONL; the loader ignores it (it is recomputable).
  const obs::prof::Summary prof = obs::prof::summarize(r.profile);
  w.key("prof");
  w.begin_object();
  w.kv("construct_ms", prof.construct_ms);
  w.kv("simulate_ms", prof.simulate_ms);
  w.kv("report_ms", prof.report_ms);
  w.kv("events_scheduled", prof.events_scheduled);
  w.kv("events_cancelled", prof.events_cancelled);
  w.kv("heap_allocs", prof.heap_allocs);
  w.kv("top_label", prof.top_label);
  w.kv("top_label_ms", prof.top_label_ms);
  w.end_object();
  w.end_object();
  std::string line = os.str();
  line.push_back('\n');
  return line;
}

LedgerLoad parse_ledger(std::string_view text) {
  LedgerLoad load;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    const bool has_newline = nl != std::string_view::npos;
    if (!has_newline) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;

    const std::unique_ptr<JsonValue> doc = obs::json_parse(line);
    ExperimentResult rec;
    if (doc == nullptr || !parse_record(*doc, &rec)) {
      if (!has_newline) {
        // A torn final line is the normal crash artifact, not corruption.
        load.truncated_tail = true;
      } else {
        ++load.dropped_lines;
      }
      continue;
    }
    const std::string* checksum = get_string(*doc, "checksum");
    if (checksum == nullptr || *checksum != ledger_checksum(rec)) {
      ++load.corrupt_records;
      continue;
    }
    load.records.push_back(std::move(rec));
  }
  return load;
}

LedgerLoad load_ledger(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    LedgerLoad load;
    load.error = "cannot open ledger: " + path;
    return load;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse_ledger(buf.str());
}

std::map<std::string, ExperimentResult> completed_runs(
    const LedgerLoad& load, std::uint64_t base_seed) {
  std::map<std::string, ExperimentResult> out;
  for (const ExperimentResult& r : load.records) {
    if (r.status != RunStatus::kOk) continue;
    if (r.seed != Runner::fork_seed(base_seed, r.name)) continue;
    out[r.name] = r;  // last record wins: a re-run supersedes
  }
  return out;
}

LedgerWriter::LedgerWriter(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  fd_ = ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    error_ = "cannot open ledger for append: " + path + ": " +
             std::strerror(errno);
    return;
  }
  // Seal a torn final line (the crash artifact --resume tolerates) with a
  // newline, so the first record appended after a resume starts on its own
  // line instead of gluing onto the torn one.
  struct stat st {};
  if (::fstat(fd_, &st) == 0 && st.st_size > 0) {
    char last = '\n';
    if (::pread(fd_, &last, 1, st.st_size - 1) == 1 && last != '\n') {
      (void)!::write(fd_, "\n", 1);
    }
  }
#else
  (void)path;
  error_ = "ledger writer requires a POSIX platform";
#endif
}

LedgerWriter::~LedgerWriter() {
#if defined(__unix__) || defined(__APPLE__)
  if (fd_ >= 0) ::close(fd_);
#endif
}

bool LedgerWriter::append(const ExperimentResult& r) {
  if (!ok()) return false;
  const std::string line = ledger_line(r);
#if defined(__unix__) || defined(__APPLE__)
  const std::lock_guard<std::mutex> lock(mu_);
  // One write() per record: O_APPEND makes the line land contiguously even
  // with several workers appending, and a crash can tear at most the tail.
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      error_ = std::string("ledger write failed: ") + std::strerror(errno);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
#else
  return false;
#endif
}

}  // namespace fiveg::core
