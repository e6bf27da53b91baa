// Seeded mutation tests for the two user-supplied JSON formats: fault plans
// (fiveg-faults/v1, fault::FaultPlan::parse_json) and campaign manifests
// (fiveg-campaign/v1, core::parse_manifest). Each parser is fed thousands
// of deterministic mutants of a committed example file (bit flips,
// truncation at every byte offset, splices of two pieces of the seed, and
// duplicated array elements) and must keep its error contract on every one.
// Under the ASan/UBSan build a crash or undefined behaviour fails the test.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "fault/fault.h"
#include "sim/rng.h"

namespace fiveg {
namespace {

constexpr std::uint64_t kMutationSeed = 0x5eed2026;
constexpr std::size_t kMinMutants = 2000;

std::string read_data(const std::string& name) {
  std::ifstream in(std::string(FIVEG_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// The [begin, end) spans of the elements of every array in `json`, found
// by a scan that tracks strings and nesting (the seeds are valid JSON).
std::vector<std::pair<std::size_t, std::size_t>> array_elements(
    const std::string& json) {
  struct Open {
    bool array;
    std::size_t element_begin;
  };
  std::vector<Open> stack;
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const auto close_element = [&](std::size_t end) {
    const Open& top = stack.back();
    std::size_t b = top.element_begin;
    while (b < end && std::isspace(static_cast<unsigned char>(json[b]))) ++b;
    std::size_t e = end;
    while (e > b && std::isspace(static_cast<unsigned char>(json[e - 1]))) --e;
    if (e > b) out.emplace_back(b, e);
  };
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') {
      for (++i; i < json.size() && json[i] != '"'; ++i) {
        if (json[i] == '\\') ++i;
      }
    } else if (c == '[' || c == '{') {
      stack.push_back({c == '[', i + 1});
    } else if (c == ']' || c == '}') {
      if (stack.back().array) close_element(i);
      stack.pop_back();
    } else if (c == ',' && stack.back().array) {
      close_element(i);
      stack.back().element_begin = i + 1;
    }
  }
  return out;
}

// Deterministic mutants of `seed`, every class the contract must survive.
std::vector<std::string> mutants(const std::string& seed) {
  std::vector<std::string> out;
  sim::Rng rng(kMutationSeed);
  const auto offset = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n)));
  };
  // Truncation at every byte offset.
  for (std::size_t n = 0; n <= seed.size(); ++n) out.push_back(seed.substr(0, n));
  // Every single-bit flip, then random two- to four-bit flips.
  for (std::size_t i = 0; i < seed.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string m = seed;
      m[i] = static_cast<char>(m[i] ^ (1 << bit));
      out.push_back(std::move(m));
    }
  }
  for (int k = 0; k < 500; ++k) {
    std::string m = seed;
    const int flips = static_cast<int>(rng.uniform_int(2, 4));
    for (int f = 0; f < flips; ++f) {
      m[offset(m.size() - 1)] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
    }
    out.push_back(std::move(m));
  }
  // Splices: two prefixes end to end, and a prefix onto a suffix.
  for (int k = 0; k < 250; ++k) {
    out.push_back(seed.substr(0, offset(seed.size())) +
                  seed.substr(0, offset(seed.size())));
    out.push_back(seed.substr(0, offset(seed.size())) +
                  seed.substr(offset(seed.size())));
  }
  // Each array element repeated in place, once and many times.
  for (const auto& [begin, end] : array_elements(seed)) {
    const std::string element = seed.substr(begin, end - begin);
    for (const int copies : {1, 2, 7, 64}) {
      std::string repeated;
      for (int c = 0; c < copies; ++c) repeated += ", " + element;
      out.push_back(seed.substr(0, end) + repeated + seed.substr(end));
    }
  }
  return out;
}

// Contract: parse_json returns, or throws std::runtime_error with a
// "fault plan:" message; a returned plan holds only valid windows.
TEST(ParserMutationTest, FaultPlanMutantsKeepTheErrorContract) {
  const std::string seed = read_data("chaos_plan.json");
  ASSERT_EQ(fault::FaultPlan::parse_json(seed).specs().size(), 5u);
  ASSERT_EQ(array_elements(seed).size(), 5u);  // the five fault windows
  const std::vector<std::string> all = mutants(seed);
  ASSERT_GE(all.size(), kMinMutants);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    try {
      const fault::FaultPlan plan = fault::FaultPlan::parse_json(all[i]);
      for (const fault::FaultSpec& spec : plan.specs()) {
        EXPECT_TRUE(spec.begin >= 0 && spec.end > spec.begin)
            << "mutant " << i << ": " << all[i];
      }
      ++accepted;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("fault plan:", 0), 0u)
          << "mutant " << i << ": " << e.what() << "\n" << all[i];
    } catch (...) {
      ADD_FAILURE() << "mutant " << i << " threw outside the contract:\n"
                    << all[i];
    }
  }
  // Truncation at full length and the duplications stay valid plans.
  EXPECT_GT(accepted, 1u);
  EXPECT_LT(accepted, all.size());
}

// Contract: parse_manifest returns true, or false with a non-empty error,
// and never throws.
TEST(ParserMutationTest, ManifestMutantsKeepTheErrorContract) {
  const std::string seed = read_data("campaign_smoke.json");
  core::CampaignManifest parsed;
  std::string error;
  ASSERT_TRUE(core::parse_manifest(seed, &parsed, &error)) << error;
  ASSERT_EQ(array_elements(seed).size(), 3u);  // one seed, two qdiscs
  const std::vector<std::string> all = mutants(seed);
  ASSERT_GE(all.size(), kMinMutants);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    core::CampaignManifest m;
    std::string err;
    try {
      if (core::parse_manifest(all[i], &m, &err)) {
        EXPECT_FALSE(m.cells().empty()) << "mutant " << i << ": " << all[i];
        ++accepted;
      } else {
        EXPECT_FALSE(err.empty()) << "mutant " << i << ": " << all[i];
      }
    } catch (...) {
      ADD_FAILURE() << "mutant " << i << " threw:\n" << all[i];
    }
  }
  EXPECT_GT(accepted, 1u);
  EXPECT_LT(accepted, all.size());
}

}  // namespace
}  // namespace fiveg
