// Seeded mutation tests for the user-supplied and on-disk formats: fault
// plans (fiveg-faults/v1, fault::FaultPlan::parse_json), campaign manifests
// (fiveg-campaign/v1, core::parse_manifest), golden baselines
// (fiveg-golden/v1, report::parse_golden) and qdisc specs
// (net::parse_qdisc_spec). Each parser is fed thousands of deterministic
// mutants of a committed seed (bit flips, truncation at every byte offset,
// splices of two pieces of the seed, and duplicated array elements) and
// must keep its error contract on every one. Under the ASan/UBSan build a
// crash or undefined behaviour fails the test.
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
#include "net/aqm.h"
#include "obs/json_check.h"
#include "report/report.h"
#include "sim/rng.h"

namespace fiveg {
namespace {

constexpr std::uint64_t kMutationSeed = 0x5eed2026;
constexpr std::size_t kMinMutants = 2000;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string read_data(const std::string& name) {
  return read_file(std::string(FIVEG_TEST_DATA_DIR) + "/" + name);
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

// Contract: for every mutant obs::json_parse accepts, parse_golden returns
// true, or false with a non-empty error, and never throws.
TEST(ParserMutationTest, GoldenMutantsKeepTheErrorContract) {
  const std::string seed =
      read_file(std::string(FIVEG_GOLDEN_DIR) + "/fig10_harq_retx.json");
  {
    const auto doc = obs::json_parse(seed);
    ASSERT_NE(doc, nullptr);
    report::GoldenFigure golden;
    std::string error;
    ASSERT_TRUE(report::parse_golden(*doc, &golden, &error)) << error;
    ASSERT_EQ(golden.id, "fig10_harq_retx");
  }
  const std::vector<std::string> all = mutants(seed);
  ASSERT_GE(all.size(), kMinMutants);
  std::size_t json_ok = 0;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    try {
      const auto doc = obs::json_parse(all[i]);
      if (doc == nullptr) continue;
      ++json_ok;
      report::GoldenFigure golden;
      std::string error;
      if (report::parse_golden(*doc, &golden, &error)) {
        ++accepted;
      } else {
        EXPECT_FALSE(error.empty()) << "mutant " << i << ": " << all[i];
      }
    } catch (...) {
      ADD_FAILURE() << "mutant " << i << " threw:\n" << all[i];
    }
  }
  // Flips inside names and numbers keep the document valid and the
  // golden well-formed; flips in the schema string or a "value" key keep
  // it valid JSON but not a golden.
  EXPECT_GT(accepted, 1u);
  EXPECT_LT(accepted, json_ok);
}

// Contract: parse_qdisc_spec accepts exactly the eight spellings
// {droptail,codel,fq_codel,red} with an optional "+ecn", fills `out`
// with that kind and flag, and leaves `out` untouched otherwise.
TEST(ParserMutationTest, QdiscSpecMutantsKeepTheErrorContract) {
  struct Spelling {
    const char* name;
    net::QdiscKind kind;
  };
  const Spelling kinds[] = {{"droptail", net::QdiscKind::kDropTail},
                            {"codel", net::QdiscKind::kCoDel},
                            {"fq_codel", net::QdiscKind::kFqCoDel},
                            {"red", net::QdiscKind::kRed}};
  // Two sentinels that differ in every field, so an untouched `out` is
  // told apart from one overwritten with a valid spelling's config.
  const net::QdiscConfig sentinels[] = {{net::QdiscKind::kRed, true},
                                        {net::QdiscKind::kDropTail, false}};
  std::vector<std::string> all;
  for (const char* seed : {"codel+ecn", "fq_codel"}) {
    for (std::string& m : mutants(seed)) all.push_back(std::move(m));
  }
  ASSERT_GE(all.size(), kMinMutants);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string& spec = all[i];
    const Spelling* expected = nullptr;
    bool ecn = false;
    for (const Spelling& k : kinds) {
      if (spec == k.name) expected = &k;
      if (spec == std::string(k.name) + "+ecn") {
        expected = &k;
        ecn = true;
      }
    }
    bool ok = false;
    for (const net::QdiscConfig& sentinel : sentinels) {
      net::QdiscConfig out = sentinel;
      ok = net::parse_qdisc_spec(spec, &out);
      EXPECT_EQ(ok, expected != nullptr) << "mutant " << i << ": " << spec;
      const net::QdiscConfig want =
          expected != nullptr ? net::QdiscConfig{expected->kind, ecn}
                              : sentinel;
      EXPECT_EQ(out.kind, want.kind) << "mutant " << i << ": " << spec;
      EXPECT_EQ(out.ecn, want.ecn) << "mutant " << i << ": " << spec;
    }
    if (ok) ++accepted;
  }
  // The seeds, the truncation "codel" and splices such as "codel" +
  // "codel+ecn" are spellings; nearly every other mutant is not.
  EXPECT_GT(accepted, 3u);
  EXPECT_LT(accepted, all.size());
}

}  // namespace
}  // namespace fiveg
