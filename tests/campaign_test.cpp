// Tests for campaign manifests (core/campaign.h): parsing and validation
// errors, cross-product cell expansion, per-cell base-seed derivation
// (distinct across cells, stable across runs), unit enumeration and the
// shard partition (disjoint, order-preserving, union == full campaign).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/campaign.h"

namespace fiveg::core {
namespace {

CampaignManifest parse_or_die(const std::string& text) {
  CampaignManifest m;
  std::string error;
  EXPECT_TRUE(parse_manifest(text, &m, &error)) << error;
  return m;
}

std::string parse_error(const std::string& text) {
  CampaignManifest m;
  std::string error;
  EXPECT_FALSE(parse_manifest(text, &m, &error));
  return error;
}

TEST(CampaignTest, MinimalManifestGetsDefaultAxes) {
  const CampaignManifest m =
      parse_or_die(R"({"schema":"fiveg-campaign/v1","name":"mini"})");
  EXPECT_EQ(m.name, "mini");
  EXPECT_FALSE(m.smoke);
  EXPECT_EQ(m.seeds, std::vector<std::uint64_t>{42});
  EXPECT_EQ(m.qdiscs, std::vector<std::string>{"droptail"});
  EXPECT_EQ(m.faults, std::vector<std::string>{""});
  ASSERT_EQ(m.cells().size(), 1u);
}

TEST(CampaignTest, CellsAreTheSeedMajorCrossProduct) {
  const CampaignManifest m = parse_or_die(R"({
    "schema": "fiveg-campaign/v1",
    "name": "grid",
    "smoke": true,
    "axes": {
      "seed": [1, 2],
      "qdisc": ["droptail", "codel"],
      "faults": ["", "plan.json"]
    }
  })");
  const std::vector<CampaignCell> cells = m.cells();
  ASSERT_EQ(cells.size(), 8u);
  // Seed-major, then qdisc, then faults.
  EXPECT_EQ(cells[0].axis_seed, 1u);
  EXPECT_EQ(cells[0].qdisc, "droptail");
  EXPECT_EQ(cells[0].faults, "");
  EXPECT_EQ(cells[1].faults, "plan.json");
  EXPECT_EQ(cells[2].qdisc, "codel");
  EXPECT_EQ(cells[4].axis_seed, 2u);
  EXPECT_EQ(cells[0].tag(), "qdisc=droptail;faults=");
  EXPECT_EQ(cells[3].tag(), "qdisc=codel;faults=plan.json");
}

TEST(CampaignTest, BaseSeedsAreDistinctPerCellAndStable) {
  const CampaignManifest m = parse_or_die(R"({
    "schema": "fiveg-campaign/v1",
    "name": "grid",
    "axes": {
      "seed": [42, 43],
      "qdisc": ["droptail", "codel", "red"],
      "faults": ["", "a.json"]
    }
  })");
  const std::vector<CampaignCell> cells = m.cells();
  std::set<std::uint64_t> seeds;
  int default_cells = 0;
  for (const CampaignCell& c : cells) {
    // The default cell runs at its axis seed (it is the plain --seed run);
    // every other cell forks, so different-parameter cells sharing an axis
    // seed cannot collide in a (name, seed)-keyed ledger.
    if (c.qdisc == "droptail" && c.faults.empty()) {
      EXPECT_EQ(c.base_seed(), c.axis_seed) << c.tag();
      ++default_cells;
    } else {
      EXPECT_NE(c.base_seed(), c.axis_seed) << c.tag();
    }
    EXPECT_EQ(c.base_seed(), c.base_seed());  // pure function of the cell
    seeds.insert(c.base_seed());
  }
  EXPECT_EQ(default_cells, 2);            // one per axis seed
  EXPECT_EQ(seeds.size(), cells.size());  // all distinct
}

TEST(CampaignTest, LabelsAreSortedByKey) {
  CampaignCell cell;
  cell.qdisc = "codel";
  cell.faults = "p.json";
  const auto labels = cell.labels();
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0].first, "faults");
  EXPECT_EQ(labels[0].second, "p.json");
  EXPECT_EQ(labels[1].first, "qdisc");
  EXPECT_EQ(labels[1].second, "codel");
}

TEST(CampaignTest, ParseErrorsNameTheOffence) {
  EXPECT_NE(parse_error("[]").find("object"), std::string::npos);
  EXPECT_NE(parse_error(R"({"name":"x"})").find("schema"),
            std::string::npos);
  // Unknown schema errors quote the offending string.
  EXPECT_NE(
      parse_error(R"({"schema":"fiveg-campaign/v9","name":"x"})")
          .find("fiveg-campaign/v9"),
      std::string::npos);
  EXPECT_NE(parse_error(R"({"schema":"fiveg-campaign/v1"})").find("name"),
            std::string::npos);
  // An invalid qdisc spec is rejected at parse time, not mid-campaign.
  const std::string err = parse_error(
      R"({"schema":"fiveg-campaign/v1","name":"x",
          "axes":{"qdisc":["warpdrive"]}})");
  EXPECT_NE(err.find("warpdrive"), std::string::npos);
  // Seeds must be non-negative integers (numbers or decimal strings).
  EXPECT_FALSE(parse_error(R"({"schema":"fiveg-campaign/v1","name":"x",
                               "axes":{"seed":[1.5]}})")
                   .empty());
  // A signed string must not wrap to 2^64 - 1, and a number past 2^64 is
  // rejected before any conversion.
  EXPECT_FALSE(parse_error(R"({"schema":"fiveg-campaign/v1","name":"x",
                               "axes":{"seed":["-1"]}})")
                   .empty());
  EXPECT_FALSE(parse_error(R"({"schema":"fiveg-campaign/v1","name":"x",
                               "axes":{"seed":[1e20]}})")
                   .empty());
  // An explicitly empty axis is an error, not an empty campaign.
  EXPECT_FALSE(parse_error(R"({"schema":"fiveg-campaign/v1","name":"x",
                               "axes":{"seed":[]}})")
                   .empty());
}

TEST(CampaignTest, SeedsAcceptDecimalStringsBeyondDoubleRange) {
  const CampaignManifest m = parse_or_die(R"({
    "schema": "fiveg-campaign/v1",
    "name": "big",
    "axes": {"seed": ["18446744073709551615", 7]}
  })");
  ASSERT_EQ(m.seeds.size(), 2u);
  EXPECT_EQ(m.seeds[0], 18446744073709551615ull);
  EXPECT_EQ(m.seeds[1], 7u);
}

TEST(CampaignTest, UnitsEnumerateCellMajor) {
  const std::vector<std::string> exps = {"fig2", "fig7"};
  const std::vector<CampaignUnit> units = campaign_units(3, exps);
  ASSERT_EQ(units.size(), 6u);
  EXPECT_EQ(units[0].cell, 0u);
  EXPECT_EQ(units[0].experiment, "fig2");
  EXPECT_EQ(units[1].experiment, "fig7");
  EXPECT_EQ(units[2].cell, 1u);
  EXPECT_EQ(units[5].cell, 2u);
  EXPECT_EQ(units[5].experiment, "fig7");
}

TEST(CampaignTest, ShardsPartitionTheUnitList) {
  const std::vector<std::string> exps = {"a", "b", "c"};
  const std::vector<CampaignUnit> units = campaign_units(3, exps);  // 9
  for (const std::size_t n : {1u, 2u, 3u, 4u, 9u, 16u}) {
    std::multiset<std::string> seen;
    std::size_t total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const std::vector<CampaignUnit> shard = shard_units(units, k, n);
      total += shard.size();
      for (const CampaignUnit& u : shard) {
        seen.insert(std::to_string(u.cell) + ":" + u.experiment);
      }
      // Round-robin balance: shard sizes differ by at most one.
      EXPECT_LE(shard.size(), (units.size() + n - 1) / n);
    }
    EXPECT_EQ(total, units.size()) << "n=" << n;  // disjoint cover
    std::multiset<std::string> want;
    for (const CampaignUnit& u : units) {
      want.insert(std::to_string(u.cell) + ":" + u.experiment);
    }
    EXPECT_EQ(seen, want) << "n=" << n;  // union == full campaign
  }
}

TEST(CampaignTest, ShardSpecParses) {
  std::size_t k = 99;
  std::size_t n = 99;
  EXPECT_TRUE(parse_shard_spec("0/1", &k, &n));
  EXPECT_EQ(k, 0u);
  EXPECT_EQ(n, 1u);
  EXPECT_TRUE(parse_shard_spec("3/8", &k, &n));
  EXPECT_EQ(k, 3u);
  EXPECT_EQ(n, 8u);
  EXPECT_FALSE(parse_shard_spec("8/8", &k, &n));  // k must be < n
  EXPECT_FALSE(parse_shard_spec("1/0", &k, &n));
  EXPECT_FALSE(parse_shard_spec("1", &k, &n));
  EXPECT_FALSE(parse_shard_spec("a/b", &k, &n));
  EXPECT_FALSE(parse_shard_spec("1/2/3", &k, &n));
  EXPECT_FALSE(parse_shard_spec("-1/2", &k, &n));
  EXPECT_FALSE(parse_shard_spec("0/-1", &k, &n));
}

}  // namespace
}  // namespace fiveg::core
