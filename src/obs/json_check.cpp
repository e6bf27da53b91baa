#include "obs/json_check.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

namespace fiveg::obs {

const JsonValue* JsonValue::get(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

namespace {

// Recursive-descent parser over a string_view with one-token lookahead.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::unique_ptr<JsonValue> parse(std::string* error) {
    auto root = std::make_unique<JsonValue>();
    if (!value(*root)) {
      if (error != nullptr) *error = error_;
      return nullptr;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing data after document");
      if (error != nullptr) *error = error_;
      return nullptr;
    }
    return root;
  }

 private:
  bool fail(const std::string& msg) {
    if (error_.empty()) {
      std::ostringstream os;
      os << msg << " at byte " << pos_;
      error_ = os.str();
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("bad literal");
    }
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return object(out);
      case '[':
        return array(out);
      case '"':
        out.type = JsonValue::Type::kString;
        return string(out.string);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.type = JsonValue::Type::kNull;
        return literal("null");
      default:
        return number(out);
    }
  }

  bool object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    if (!consume('{')) return false;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      const std::size_t key_pos = pos_;
      std::string key;
      if (!string(key)) return false;
      if (out.object.count(key) != 0) {
        // RFC 8259 names SHOULD be unique; readers disagree on which
        // duplicate wins, so a document with one is rejected.
        pos_ = key_pos;
        return fail("duplicate key \"" + key + "\"");
      }
      if (!consume(':')) return false;
      JsonValue member;
      if (!value(member)) return false;
      out.object.emplace(std::move(key), std::move(member));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    if (!consume('[')) return false;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue element;
      if (!value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool hex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return fail("bad \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  static void append_utf8(std::string& s, unsigned cp) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return fail("expected string");
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          unsigned cp = 0;
          if (!hex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
            if (pos_ + 2 <= text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              unsigned lo = 0;
              if (!hex4(&lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF) {
                return fail("bad low surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              return fail("lone high surrogate");
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return pos_ > before;
    };
    // Integer part: 0, or nonzero digit run (no leading zeros).
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else if (!digits()) {
      return fail("expected number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return fail("expected fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) return fail("expected exponent digits");
    }
    out.type = JsonValue::Type::kNumber;
    out.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                             nullptr);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::unique_ptr<JsonValue> json_parse(std::string_view text,
                                      std::string* error) {
  return Parser(text).parse(error);
}

bool json_valid(std::string_view text, std::string* error) {
  return json_parse(text, error) != nullptr;
}

bool parse_u64(std::string_view text, std::uint64_t* out) noexcept {
  // from_chars takes no sign for an unsigned type, skips no whitespace and
  // reports overflow, so only the whole-string check is left to do here.
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc{} && ptr == end;
}

TraceCheck check_chrome_trace(std::string_view text) {
  TraceCheck check;
  std::string error;
  const auto doc = json_parse(text, &error);
  if (doc == nullptr) {
    check.error = "invalid JSON: " + error;
    return check;
  }
  if (!doc->is(JsonValue::Type::kObject)) {
    check.error = "top level is not an object";
    return check;
  }
  const JsonValue* events = doc->get("traceEvents");
  if (events == nullptr || !events->is(JsonValue::Type::kArray)) {
    check.error = "missing traceEvents array";
    return check;
  }

  std::set<std::string> cats;
  std::set<std::string> procs;
  // Counter ('C') samples must be time-monotonic per (pid, tid, name)
  // track — Perfetto silently reorders or drops violators. Metadata must
  // be unique per target: a second process_name for one pid (or
  // thread_name for one (pid, tid)) means two writers raced on the track.
  std::map<std::tuple<double, double, std::string>, double> counter_last_ts;
  std::set<double> named_pids;
  std::set<std::pair<double, double>> named_tids;
  for (const JsonValue& e : events->array) {
    if (!e.is(JsonValue::Type::kObject)) {
      check.error = "trace event is not an object";
      return check;
    }
    const JsonValue* ph = e.get("ph");
    const JsonValue* name = e.get("name");
    const JsonValue* pid = e.get("pid");
    if (ph == nullptr || !ph->is(JsonValue::Type::kString) ||
        name == nullptr || !name->is(JsonValue::Type::kString) ||
        pid == nullptr || !pid->is(JsonValue::Type::kNumber)) {
      check.error = "trace event missing ph/name/pid";
      return check;
    }
    const JsonValue* tid = e.get("tid");
    const double tid_num =
        tid != nullptr && tid->is(JsonValue::Type::kNumber) ? tid->number
                                                            : 0.0;
    if (ph->string == "M") {
      if (name->string == "process_name") {
        if (!named_pids.insert(pid->number).second) {
          check.error = "duplicate process_name metadata for pid " +
                        std::to_string(pid->number);
          return check;
        }
        if (const JsonValue* args = e.get("args")) {
          if (const JsonValue* n = args->get("name")) procs.insert(n->string);
        }
      } else if (name->string == "thread_name") {
        if (!named_tids.insert({pid->number, tid_num}).second) {
          check.error = "duplicate thread_name metadata for pid " +
                        std::to_string(pid->number) + " tid " +
                        std::to_string(tid_num);
          return check;
        }
      }
      continue;
    }
    const JsonValue* ts = e.get("ts");
    if (ts == nullptr || !ts->is(JsonValue::Type::kNumber)) {
      check.error = "trace event missing ts";
      return check;
    }
    if (ph->string == "C") {
      const auto key = std::make_tuple(pid->number, tid_num, name->string);
      const auto it = counter_last_ts.find(key);
      if (it != counter_last_ts.end() && ts->number < it->second) {
        check.error = "counter track '" + name->string +
                      "' not time-monotonic (ts " +
                      std::to_string(ts->number) + " after " +
                      std::to_string(it->second) + ")";
        return check;
      }
      counter_last_ts[key] = ts->number;
    }
    ++check.event_count;
    if (const JsonValue* cat = e.get("cat")) {
      if (cat->is(JsonValue::Type::kString)) cats.insert(cat->string);
    }
  }
  check.categories.assign(cats.begin(), cats.end());
  check.processes.assign(procs.begin(), procs.end());
  if (const JsonValue* other = doc->get("otherData")) {
    if (const JsonValue* dropped = other->get("events_dropped");
        dropped != nullptr && dropped->is(JsonValue::Type::kNumber) &&
        dropped->number >= 0) {
      check.dropped_events = static_cast<std::uint64_t>(dropped->number);
    }
  }
  check.ok = true;
  return check;
}

TraceCheck check_chrome_trace(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  return check_chrome_trace(buf.str());
}

}  // namespace fiveg::obs
