// Columnar campaign result store (format "fiveg-rs/v1"): one compact
// append-only binary file per campaign shard, holding the *deterministic
// core* of every completed run — name, seed, status, text, metric series,
// and the raw metric columns (counter values, gauge high-water marks,
// digest bins) a fiveg-runall/v5 document is derived from. Derived statistics (means, percentile ladders) are never stored:
// they are recomputed through the same obs::snapshot_of path the live
// registry uses, so a summary exported from the store is byte-identical
// to the one the original campaign would have printed with timing off.
// Wall-clock fields live in the ledger (core/ledger.h), not here.
//
// File layout: a sequence of self-validating frames, each
//
//   "FGRS"  magic (4 bytes)
//   0x01    format version
//   type    'D' (dictionary delta) or 'R' (record)
//   len     u32 LE payload length
//   payload len bytes
//   fnv     u64 LE FNV-1a of the payload
//
// 'D' frames append strings to the file-wide dictionary (ids are assigned
// in file order, starting at 0); 'R' frames hold one run encoded against
// that dictionary (obs/codec.h). The writer emits a record's dictionary
// delta and the record itself in ONE O_APPEND write(), so concurrent
// workers never interleave bytes and a killed campaign can tear at most
// the final write — which the parser treats as a torn tail (the expected
// crash artifact), never as corruption of the valid prefix.
//
// Merging is order-independent by construction: records are keyed by
// (experiment, seed, campaign labels), and canonical_view() deduplicates
// (last record wins, mirroring the ledger's resume semantics) and sorts,
// so any shard layout, completion order or --jobs value yields the same
// merged view byte-for-byte.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.h"

namespace fiveg::core {

inline constexpr std::string_view kStoreSchema = "fiveg-rs/v1";
/// Shard files are named `<stem>.fgrs`; load_store_dir reads every match.
inline constexpr std::string_view kStoreFileSuffix = ".fgrs";

/// One stored run: the deterministic core of an ExperimentResult plus the
/// campaign labels (e.g. {"qdisc", "codel"}) that distinguish grid cells
/// running the same experiment at different parameters. Labels are kept
/// sorted by key; the wall-clock fields of `result` are always zero.
struct StoreRecord {
  ExperimentResult result;
  std::vector<std::pair<std::string, std::string>> labels;

  /// Identity under merge: experiment name, seed and labels. Two records
  /// with equal keys describe the same grid cell's run; the later one
  /// supersedes (a re-run after a crash, or an overlapping shard).
  [[nodiscard]] std::string key() const;
};

/// `a` before `b` in the canonical merged order: by experiment name, then
/// seed, then labels — independent of file order and shard layout.
[[nodiscard]] bool store_record_less(const StoreRecord& a,
                                     const StoreRecord& b);

/// Outcome of parsing one shard file.
struct StoreLoad {
  std::vector<StoreRecord> records;  // file order
  std::size_t valid_bytes = 0;       // length of the parseable frame prefix
  bool truncated_tail = false;  // bytes past valid_bytes (torn final write)
  std::size_t dropped_records = 0;  // framed+checksummed but undecodable
  std::string error;                // I/O-level failure; empty when loadable
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parses shard bytes. The valid frame prefix is kept; anything after the
/// first malformed frame header or checksum failure is a torn tail (the
/// writer's single-write discipline means a crash tears only the end).
[[nodiscard]] StoreLoad parse_store(std::string_view bytes);

/// Reads and parses one shard file. A missing file is an error.
[[nodiscard]] StoreLoad load_store_file(const std::string& path);

/// Outcome of loading a store directory (every `*.fgrs`, sorted by name).
struct StoreDirLoad {
  std::vector<std::string> files;    // shard paths actually read, sorted
  std::vector<StoreRecord> records;  // concatenation, file order
  std::size_t torn_files = 0;        // shards with a torn tail
  std::size_t dropped_records = 0;   // summed across shards
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Loads every shard in `dir`. A directory with no shard files is a
/// valid, empty store; an unreadable directory or shard is an error.
[[nodiscard]] StoreDirLoad load_store_dir(const std::string& dir);

/// The canonical merged view: deduplicates by key() (last record in
/// `records` wins) and sorts by store_record_less. This is the exchange
/// point of the whole design — shards merged in any order produce the
/// same vector, because duplicate resolution depends only on per-shard
/// append order (writers are append-only and crash consistency re-runs
/// land after their superseded originals).
[[nodiscard]] std::vector<StoreRecord> canonical_view(
    std::vector<StoreRecord> records);

/// Append-only shard writer. Opening scans any existing file: a torn tail
/// is sealed (truncated to the valid prefix), the file-wide dictionary is
/// rebuilt, and the present-key set is loaded so a resumed campaign can
/// re-append completed runs idempotently. Thread-safe; each append is one
/// O_APPEND write().
class StoreWriter {
 public:
  explicit StoreWriter(const std::string& path);
  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;
  ~StoreWriter();

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// True if a record with this key is already on disk (or was appended
  /// through this writer).
  [[nodiscard]] bool contains(const std::string& key) const;

  /// Appends one record; a record whose key is already present is skipped
  /// (idempotent resume) and still returns true. False with error() set
  /// on I/O failure, which poisons the writer.
  bool append(const StoreRecord& rec);

  /// Records written by this writer (skipped duplicates not counted).
  [[nodiscard]] std::size_t appended() const;

 private:
  int fd_ = -1;
  mutable std::mutex mu_;
  std::string error_;
  std::map<std::string, std::uint64_t, std::less<>> dict_;
  std::uint64_t next_id_ = 0;
  std::set<std::string> present_;
  std::size_t appended_ = 0;
};

}  // namespace fiveg::core
