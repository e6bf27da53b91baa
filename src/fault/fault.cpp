#include "fault/fault.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/json_check.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace fiveg::fault {

namespace {

thread_local Runtime* g_runtime = nullptr;

[[nodiscard]] bool matches(const std::string& spec_link,
                           std::string_view link_name) {
  return spec_link.empty() ||
         link_name.find(spec_link) != std::string_view::npos;
}

}  // namespace

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSectorOutage: return "sector_outage";
    case FaultKind::kLinkLoss: return "link_loss";
    case FaultKind::kLinkDelay: return "link_delay";
    case FaultKind::kServerStall: return "server_stall";
    case FaultKind::kCoverageHole: return "coverage_hole";
  }
  return "unknown";
}

void FaultPlan::add(FaultSpec spec) {
  const std::string kind(to_string(spec.kind));
  if (spec.begin < 0 || spec.end <= spec.begin) {
    throw std::invalid_argument("fault " + kind +
                                ": window must satisfy 0 <= begin < end");
  }
  switch (spec.kind) {
    case FaultKind::kSectorOutage:
      if (spec.pci < 0) {
        throw std::invalid_argument("sector_outage: pci required");
      }
      break;
    case FaultKind::kLinkLoss:
      if (!(spec.loss > 0.0) || spec.loss > 1.0) {
        throw std::invalid_argument("link_loss: loss must be in (0, 1]");
      }
      break;
    case FaultKind::kLinkDelay:
      if (spec.extra_delay <= 0) {
        throw std::invalid_argument("link_delay: extra_delay must be > 0");
      }
      break;
    case FaultKind::kServerStall:
      break;
    case FaultKind::kCoverageHole:
      if (!(spec.offset_db > 0.0)) {
        throw std::invalid_argument("coverage_hole: offset_db must be > 0");
      }
      break;
  }
  specs_.push_back(std::move(spec));
}

bool FaultPlan::has_kind(FaultKind kind) const noexcept {
  for (const FaultSpec& spec : specs_) {
    if (spec.kind == kind) return true;
  }
  return false;
}

namespace {

[[nodiscard]] double require_number(const obs::JsonValue& spec,
                                    const std::string& key,
                                    const std::string& kind) {
  const obs::JsonValue* v = spec.get(key);
  if (v == nullptr || !v->is(obs::JsonValue::Type::kNumber)) {
    throw std::runtime_error("fault plan: " + kind + " requires numeric \"" +
                             key + "\"");
  }
  if (!std::isfinite(v->number)) {
    throw std::runtime_error("fault plan: " + kind + " \"" + key +
                             "\" must be finite");
  }
  return v->number;
}

// `key`, counted in `unit`s (sim::kSecond, sim::kMillisecond), as a
// sim::Time. The conversion is sim::from_seconds/from_millis's product,
// after checking that it fits: every double below 2^63 ns does.
[[nodiscard]] sim::Time time_field(const obs::JsonValue& spec,
                                   const std::string& key,
                                   const std::string& kind, sim::Time unit) {
  constexpr double kLimitNs = 9223372036854775808.0;  // 2^63
  const double ns =
      require_number(spec, key, kind) * static_cast<double>(unit);
  if (!(std::fabs(ns) < kLimitNs)) {
    throw std::runtime_error("fault plan: " + kind + " \"" + key +
                             "\" is out of range");
  }
  return static_cast<sim::Time>(ns);
}

// `key` as an int: integral and within int's range.
[[nodiscard]] int int_field(const obs::JsonValue& spec, const std::string& key,
                            const std::string& kind) {
  const double v = require_number(spec, key, kind);
  if (v != std::floor(v) || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw std::runtime_error("fault plan: " + kind + " \"" + key +
                             "\" must be an integer in int range");
  }
  return static_cast<int>(v);
}

}  // namespace

FaultPlan FaultPlan::parse_json(std::string_view text) {
  std::string error;
  const std::unique_ptr<obs::JsonValue> root = obs::json_parse(text, &error);
  if (root == nullptr) {
    throw std::runtime_error("fault plan: invalid JSON: " + error);
  }
  if (!root->is(obs::JsonValue::Type::kObject)) {
    throw std::runtime_error("fault plan: top level must be an object");
  }
  const obs::JsonValue* schema = root->get("schema");
  if (schema == nullptr || !schema->is(obs::JsonValue::Type::kString) ||
      schema->string != "fiveg-faults/v1") {
    throw std::runtime_error(
        "fault plan: \"schema\" must be \"fiveg-faults/v1\"");
  }
  const obs::JsonValue* faults = root->get("faults");
  if (faults == nullptr || !faults->is(obs::JsonValue::Type::kArray)) {
    throw std::runtime_error("fault plan: \"faults\" array required");
  }

  FaultPlan plan;
  for (const obs::JsonValue& entry : faults->array) {
    if (!entry.is(obs::JsonValue::Type::kObject)) {
      throw std::runtime_error("fault plan: each fault must be an object");
    }
    const obs::JsonValue* kind_v = entry.get("kind");
    if (kind_v == nullptr || !kind_v->is(obs::JsonValue::Type::kString)) {
      throw std::runtime_error("fault plan: fault \"kind\" string required");
    }
    const std::string& kind = kind_v->string;

    FaultSpec spec;
    if (kind == "sector_outage") {
      spec.kind = FaultKind::kSectorOutage;
      spec.pci = int_field(entry, "pci", kind);
    } else if (kind == "link_loss") {
      spec.kind = FaultKind::kLinkLoss;
      spec.loss = require_number(entry, "loss", kind);
      if (const obs::JsonValue* link = entry.get("link"); link != nullptr) {
        if (!link->is(obs::JsonValue::Type::kString)) {
          throw std::runtime_error("fault plan: \"link\" must be a string");
        }
        spec.link = link->string;
      }
    } else if (kind == "link_delay") {
      spec.kind = FaultKind::kLinkDelay;
      spec.extra_delay =
          time_field(entry, "extra_delay_ms", kind, sim::kMillisecond);
      if (const obs::JsonValue* link = entry.get("link"); link != nullptr) {
        if (!link->is(obs::JsonValue::Type::kString)) {
          throw std::runtime_error("fault plan: \"link\" must be a string");
        }
        spec.link = link->string;
      }
    } else if (kind == "server_stall") {
      spec.kind = FaultKind::kServerStall;
    } else if (kind == "coverage_hole") {
      spec.kind = FaultKind::kCoverageHole;
      spec.offset_db = require_number(entry, "offset_db", kind);
    } else {
      throw std::runtime_error("fault plan: unknown kind \"" + kind + "\"");
    }
    spec.begin = time_field(entry, "begin_s", kind, sim::kSecond);
    spec.end = time_field(entry, "end_s", kind, sim::kSecond);
    try {
      plan.add(std::move(spec));
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(std::string("fault plan: ") + e.what());
    }
  }
  return plan;
}

FaultPlan FaultPlan::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("fault plan: cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_json(text.str());
}

Runtime::Runtime(const FaultPlan* plan, std::uint64_t seed)
    : plan_(plan), seed_(seed), active_(plan->specs().size(), false) {}

double Runtime::link_loss(std::string_view link_name) const {
  if (active_link_specs_ == 0) return 0.0;
  double pass = 1.0;
  const auto& specs = plan_->specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!active_[i] || specs[i].kind != FaultKind::kLinkLoss) continue;
    if (matches(specs[i].link, link_name)) pass *= 1.0 - specs[i].loss;
  }
  return 1.0 - pass;
}

sim::Time Runtime::link_extra_delay(std::string_view link_name) const {
  if (active_link_specs_ == 0) return 0;
  sim::Time extra = 0;
  const auto& specs = plan_->specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!active_[i] || specs[i].kind != FaultKind::kLinkDelay) continue;
    if (matches(specs[i].link, link_name)) extra += specs[i].extra_delay;
  }
  return extra;
}

void Runtime::set_active(std::size_t spec_index, bool on) {
  if (active_[spec_index] == on) return;
  active_[spec_index] = on;
  const FaultSpec& spec = plan_->specs()[spec_index];
  const int delta = on ? 1 : -1;
  switch (spec.kind) {
    case FaultKind::kSectorOutage: {
      for (auto& [pci, count] : down_) {
        if (pci == spec.pci) {
          count += delta;
          return;
        }
      }
      down_.emplace_back(spec.pci, 1);
      break;
    }
    case FaultKind::kLinkLoss:
    case FaultKind::kLinkDelay:
      active_link_specs_ += delta;
      break;
    case FaultKind::kServerStall:
      server_stall_depth_ += delta;
      break;
    case FaultKind::kCoverageHole:
      coverage_offset_db_ += on ? spec.offset_db : -spec.offset_db;
      break;
  }
}

void Runtime::deactivate_all() {
  for (std::size_t i = 0; i < active_.size(); ++i) set_active(i, false);
}

Runtime* runtime() noexcept { return g_runtime; }

ScopedFaults::ScopedFaults(Runtime* runtime) : prev_(g_runtime) {
  g_runtime = runtime;
}

ScopedFaults::~ScopedFaults() { g_runtime = prev_; }

void arm(sim::Simulator& simulator) {
  Runtime* rt = g_runtime;
  if (rt == nullptr) return;
  // A fresh timeline starts with every window closed, even if a previous
  // Simulator on this thread ended mid-window (run_until past an unexecuted
  // end toggle).
  rt->deactivate_all();
  const auto& specs = rt->plan().specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const FaultSpec& spec = specs[i];
    simulator.schedule_at(spec.begin, "fault.begin", [rt, i, &simulator] {
      rt->set_active(i, true);
      const FaultSpec& s = rt->plan().specs()[i];
      const std::string kind(to_string(s.kind));
      if (obs::MetricsRegistry* m = obs::metrics(); m != nullptr) {
        m->counter("fault.injected", {{"kind", kind}}).add();
      }
      if (obs::Tracer* t = obs::tracer(); t != nullptr) {
        t->instant(simulator.now(), "fault.begin", "fault",
                   {{"kind", kind}});
      }
    });
    simulator.schedule_at(spec.end, "fault.end", [rt, i, &simulator] {
      rt->set_active(i, false);
      const FaultSpec& s = rt->plan().specs()[i];
      if (obs::Tracer* t = obs::tracer(); t != nullptr) {
        t->instant(simulator.now(), "fault.end", "fault",
                   {{"kind", std::string(to_string(s.kind))}});
      }
    });
  }
}

}  // namespace fiveg::fault
