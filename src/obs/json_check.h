// A small strict JSON parser used to validate what the observability layer
// emits: tests parse Chrome traces back (escaping, structure) and the
// fiveg_trace_check CLI gates trace artifacts in CI. Deliberately minimal —
// full DOM, no streaming — because trace files in the smoke tier are small.
// Also home to the strict decimal parser every numeric input goes through.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace fiveg::obs {

/// Parsed JSON value (strict RFC 8259 subset: no comments, no trailing
/// commas, no duplicate member names in one object; \uXXXX escapes are
/// decoded to UTF-8).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool is(Type t) const noexcept { return type == t; }
  /// Object member lookup; null if absent or not an object.
  [[nodiscard]] const JsonValue* get(const std::string& key) const;
};

/// Parses `text` as one JSON document. Returns null on error and, when
/// `error` is given, fills it with a message including the byte offset.
[[nodiscard]] std::unique_ptr<JsonValue> json_parse(std::string_view text,
                                                    std::string* error = nullptr);

/// True iff `text` is a complete, valid JSON document.
[[nodiscard]] bool json_valid(std::string_view text,
                              std::string* error = nullptr);

/// Strict decimal uint64: digits only (no sign, no whitespace, no trailing
/// bytes) and no overflow. The one parser for numeric command-line flags,
/// manifest seed strings and ledger seeds, so "-1" can never wrap.
[[nodiscard]] bool parse_u64(std::string_view text,
                             std::uint64_t* out) noexcept;

/// Structural validation of a Chrome trace_event document.
struct TraceCheck {
  bool ok = false;
  std::string error;  // first failure, empty when ok
  std::uint64_t event_count = 0;       // non-metadata trace events
  std::vector<std::string> categories; // distinct "cat" values, sorted
  std::vector<std::string> processes;  // process_name metadata values, sorted
  // Ring-buffer truncation accounting from otherData: events lost to
  // wraparound across all processes. Reported, never a failure — a wrapped
  // ring is a capacity decision, not a malformed trace.
  std::uint64_t dropped_events = 0;
};

/// Parses and validates: top-level object, "traceEvents" array, every event
/// an object with string "ph" and the fields each phase requires. Also
/// enforces counter ('C') sample time-monotonicity per (pid, tid, name)
/// track and uniqueness of process_name / thread_name metadata per target.
[[nodiscard]] TraceCheck check_chrome_trace(std::string_view text);

/// Convenience: reads the whole stream, then checks.
[[nodiscard]] TraceCheck check_chrome_trace(std::istream& is);

}  // namespace fiveg::obs
