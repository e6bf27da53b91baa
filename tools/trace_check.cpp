// CI gate for trace artifacts: parses a Chrome trace_event JSON file with
// the strict obs parser and enforces minimum structure. Exit 0 on success.
//
// usage: fiveg_trace_check FILE [--min-events N] [--require-cats a,b,c]
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_check.h"

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string part;
  while (std::getline(is, part, ',')) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::uint64_t min_events = 1;
  std::vector<std::string> required_cats;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--min-events" && i + 1 < argc) {
      if (!fiveg::obs::parse_u64(argv[++i], &min_events)) {
        std::cerr << "bad --min-events value: " << argv[i] << "\n";
        return 2;
      }
    } else if (arg == "--require-cats" && i + 1 < argc) {
      required_cats = split_csv(argv[++i]);
    } else if (arg == "-h" || arg == "--help" || arg[0] == '-') {
      std::cerr << "usage: fiveg_trace_check FILE [--min-events N] "
                   "[--require-cats a,b,c]\n";
      return arg[0] == '-' && arg != "-h" && arg != "--help" ? 2 : 0;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    std::cerr << "fiveg_trace_check: no input file\n";
    return 2;
  }

  std::ifstream f(path);
  if (!f) {
    std::cerr << "fiveg_trace_check: cannot open " << path << "\n";
    return 2;
  }
  const fiveg::obs::TraceCheck check = fiveg::obs::check_chrome_trace(f);
  if (!check.ok) {
    std::cerr << "fiveg_trace_check: " << path << ": " << check.error << "\n";
    return 1;
  }
  if (check.event_count < min_events) {
    std::cerr << "fiveg_trace_check: " << path << ": only "
              << check.event_count << " events (need >= " << min_events
              << ")\n";
    return 1;
  }
  for (const std::string& cat : required_cats) {
    bool found = false;
    for (const std::string& have : check.categories) found |= have == cat;
    if (!found) {
      std::cerr << "fiveg_trace_check: " << path << ": missing category '"
                << cat << "' (have:";
      for (const std::string& have : check.categories) {
        std::cerr << " " << have;
      }
      std::cerr << ")\n";
      return 1;
    }
  }

  std::cout << path << ": ok, " << check.event_count << " events, "
            << check.categories.size() << " categories, "
            << check.processes.size() << " processes\n";
  // Ring-buffer truncation is reported, not gated on: a wrapped ring means
  // the capacity bound kicked in, not that the trace is malformed.
  if (check.dropped_events > 0) {
    std::cerr << "fiveg_trace_check: note: " << check.dropped_events
              << " events were dropped to ring-buffer wraparound "
                 "(raise --trace-capacity to keep them)\n";
  }
  return 0;
}
