// Tests for the columnar campaign result store (core/store.h): frame
// parsing and checksum rejection, torn-tail semantics (valid prefix kept,
// tail sealed on writer reopen), record round-trips including metric
// columns, key-based dedup in canonical_view, writer idempotence across
// reopen, and directory loads.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.h"
#include "core/store.h"
#include "obs/metrics.h"
#include "sim/rng.h"

namespace fiveg::core {
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fiveg_store_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string shard(const std::string& stem) const {
    return (dir_ / (stem + std::string(kStoreFileSuffix))).string();
  }

  fs::path dir_;
};

// A result with every column kind populated, varying by (name, seed).
StoreRecord make_record(const std::string& name, std::uint64_t seed,
                        std::vector<std::pair<std::string, std::string>>
                            labels = {}) {
  StoreRecord rec;
  rec.result.name = name;
  rec.result.seed = seed;
  rec.result.status = RunStatus::kOk;
  rec.result.paper_ref = "Figure 7";
  rec.result.description = "store test fixture";
  rec.result.text = "text for " + name + "\n";
  MetricSeries series;
  series.name = "tput_mbps";
  series.unit = "Mbps";
  sim::Rng rng(seed);
  for (int i = 0; i < 8; ++i) {
    series.points.push_back(
        {static_cast<double>(i), rng.uniform(0.0, 1000.0)});
  }
  rec.result.metrics.push_back(std::move(series));
  obs::MetricsRegistry reg;
  reg.counter("pkts").add(seed % 1000 + 1);
  reg.gauge("depth").set(static_cast<double>(seed % 7));
  for (int i = 0; i < 100; ++i) {
    reg.digest("lat_us").observe(rng.lognormal(3.0, 1.0));
    reg.digest("owd_ms").observe(rng.normal(20.0, 5.0));
  }
  rec.result.counters = reg.snapshot(obs::MetricClock::kSim);
  rec.labels = std::move(labels);
  return rec;
}

// Byte-level equality proxy: two records are identical iff their JSON
// projections are (write_json is the exhaustive serializer of the
// deterministic core).
std::string json_of(const StoreRecord& rec) {
  RunSummary s;
  s.results.push_back(rec.result);
  std::ostringstream os;
  write_json(s, os, /*include_timing=*/false);
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST_F(StoreTest, WriteThenLoadRoundTripsEveryColumn) {
  const std::string path = shard("s");
  {
    StoreWriter w(path);
    ASSERT_TRUE(w.ok()) << w.error();
    ASSERT_TRUE(w.append(make_record("fig7_throughput", 42)));
    ASSERT_TRUE(w.append(
        make_record("fig9_latency", 43, {{"qdisc", "codel"}})));
    EXPECT_EQ(w.appended(), 2u);
  }
  StoreLoad load = load_store_file(path);
  ASSERT_TRUE(load.ok()) << load.error;
  EXPECT_FALSE(load.truncated_tail);
  EXPECT_EQ(load.dropped_records, 0u);
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(json_of(load.records[0]),
            json_of(make_record("fig7_throughput", 42)));
  EXPECT_EQ(load.records[1].labels,
            (std::vector<std::pair<std::string, std::string>>{
                {"qdisc", "codel"}}));
  EXPECT_EQ(json_of(load.records[1]),
            json_of(make_record("fig9_latency", 43, {{"qdisc", "codel"}})));
}

TEST_F(StoreTest, AppendDeduplicatesByKey) {
  const std::string path = shard("s");
  StoreWriter w(path);
  ASSERT_TRUE(w.append(make_record("fig7", 42)));
  ASSERT_TRUE(w.append(make_record("fig7", 42)));  // same key: skipped
  ASSERT_TRUE(w.append(make_record("fig7", 43)));  // new seed: kept
  ASSERT_TRUE(w.append(make_record("fig7", 42, {{"qdisc", "red"}})));
  EXPECT_EQ(w.appended(), 3u);
  EXPECT_TRUE(w.contains(make_record("fig7", 42).key()));
  EXPECT_FALSE(w.contains(make_record("fig8", 42).key()));
}

TEST_F(StoreTest, ReopenSkipsPresentKeysAndReusesDictionary) {
  const std::string path = shard("s");
  std::size_t size_after_first = 0;
  {
    StoreWriter w(path);
    ASSERT_TRUE(w.append(make_record("fig7", 42)));
    size_after_first = read_file(path).size();
  }
  {
    StoreWriter w(path);  // reopen: present set rebuilt from disk
    ASSERT_TRUE(w.ok()) << w.error();
    ASSERT_TRUE(w.append(make_record("fig7", 42)));  // dup: no bytes
    EXPECT_EQ(w.appended(), 0u);
    EXPECT_EQ(read_file(path).size(), size_after_first);
    // A second record reuses already-interned strings: its dictionary
    // delta must be smaller than the first record's full vocabulary.
    ASSERT_TRUE(w.append(make_record("fig7", 43)));
  }
  const std::size_t grown = read_file(path).size();
  EXPECT_LT(grown - size_after_first, size_after_first);
  StoreLoad load = load_store_file(path);
  ASSERT_TRUE(load.ok());
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(json_of(load.records[1]), json_of(make_record("fig7", 43)));
}

TEST_F(StoreTest, TornTailKeepsValidPrefixAndIsSealedOnReopen) {
  const std::string path = shard("s");
  {
    StoreWriter w(path);
    ASSERT_TRUE(w.append(make_record("fig7", 42)));
    ASSERT_TRUE(w.append(make_record("fig8", 42)));
  }
  const std::string intact = read_file(path);
  // Simulate a mid-append SIGKILL: a torn half-frame after the prefix.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f << "FGRS\x01R\xff\xff";  // plausible header start, then nothing
  }
  StoreLoad load = load_store_file(path);
  ASSERT_TRUE(load.ok());
  EXPECT_TRUE(load.truncated_tail);
  EXPECT_EQ(load.valid_bytes, intact.size());
  ASSERT_EQ(load.records.size(), 2u);

  // Reopening the writer seals the tail (ftruncate to the valid prefix);
  // appends continue from there.
  {
    StoreWriter w(path);
    ASSERT_TRUE(w.ok()) << w.error();
    EXPECT_EQ(read_file(path).size(), intact.size());
    ASSERT_TRUE(w.append(make_record("fig9", 42)));
  }
  StoreLoad again = load_store_file(path);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.truncated_tail);
  EXPECT_EQ(again.records.size(), 3u);
}

TEST_F(StoreTest, CorruptedPayloadStopsParseAtChecksum) {
  const std::string path = shard("s");
  {
    StoreWriter w(path);
    ASSERT_TRUE(w.append(make_record("fig7", 42)));
    ASSERT_TRUE(w.append(make_record("fig8", 42)));
  }
  std::string bytes = read_file(path);
  // Flip one byte in the middle: the enclosing frame's checksum fails,
  // so that frame and everything after it is a torn tail — the valid
  // prefix before it survives.
  bytes[bytes.size() / 2] ^= 0x40;
  StoreLoad load = parse_store(bytes);
  ASSERT_TRUE(load.ok());
  EXPECT_TRUE(load.truncated_tail);
  EXPECT_LT(load.records.size(), 2u);
  EXPECT_LT(load.valid_bytes, bytes.size());
}

TEST_F(StoreTest, CanonicalViewDeduplicatesLastWinsAndSorts) {
  StoreRecord a = make_record("fig7", 42);
  StoreRecord a2 = make_record("fig7", 42);
  a2.result.text = "superseding re-run\n";
  StoreRecord b = make_record("fig2", 42);
  StoreRecord c = make_record("fig7", 41);
  // Deliberately unsorted, duplicate key (a, a2) with a2 later.
  std::vector<StoreRecord> records;
  records.push_back(a);
  records.push_back(c);
  records.push_back(b);
  records.push_back(a2);
  const std::vector<StoreRecord> view = canonical_view(std::move(records));
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0].result.name, "fig2");
  EXPECT_EQ(view[1].result.seed, 41u);
  EXPECT_EQ(view[2].result.seed, 42u);
  EXPECT_EQ(view[2].result.text, "superseding re-run\n");  // last wins
}

TEST_F(StoreTest, DirectoryLoadMergesShardsAndIgnoresOtherFiles) {
  {
    StoreWriter w0(shard("shard-0-of-2"));
    ASSERT_TRUE(w0.append(make_record("fig7", 42)));
    StoreWriter w1(shard("shard-1-of-2"));
    ASSERT_TRUE(w1.append(make_record("fig8", 42)));
  }
  {
    std::ofstream junk(dir_ / "notes.txt");
    junk << "not a shard\n";
  }
  StoreDirLoad load = load_store_dir(dir_.string());
  ASSERT_TRUE(load.ok()) << load.error;
  EXPECT_EQ(load.files.size(), 2u);
  EXPECT_EQ(load.torn_files, 0u);
  ASSERT_EQ(load.records.size(), 2u);

  // An empty directory is a valid empty store; a missing one is an error.
  const fs::path empty = dir_ / "empty";
  fs::create_directories(empty);
  StoreDirLoad none = load_store_dir(empty.string());
  EXPECT_TRUE(none.ok());
  EXPECT_TRUE(none.records.empty());
  StoreDirLoad missing = load_store_dir((dir_ / "nope").string());
  EXPECT_FALSE(missing.ok());
}

TEST_F(StoreTest, GarbageFileParsesToEmptyTornStore) {
  const std::string path = shard("s");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a store file at all";
  }
  StoreLoad load = load_store_file(path);
  ASSERT_TRUE(load.ok());
  EXPECT_TRUE(load.truncated_tail);
  EXPECT_EQ(load.valid_bytes, 0u);
  EXPECT_TRUE(load.records.empty());
}

}  // namespace
}  // namespace fiveg::core
