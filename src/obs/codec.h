// Binary codec for the observability data model: LEB128 varints, zigzag
// signed varints, raw little-endian IEEE-754 doubles, and on top of them
// exact encoders/decoders for obs::Digest and whole MetricSnapshot sets. This is the serialization layer of the columnar
// result store (core/store.h): a digest decoded from its encoded bucket
// columns is indistinguishable from the original — encode(decode(x)) ==
// x byte-for-byte, and every derived statistic (mean, quantiles) matches
// bit-for-bit because the restore path rebuilds the exact internal state.
//
// Strings are NOT encoded here: callers that need them (the store's
// file-wide dictionary) provide intern/resolve callbacks, so the same
// snapshot codec serves both dictionary-compressed shard files and
// self-contained test fixtures.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/digest.h"
#include "obs/metrics.h"

namespace fiveg::obs::codec {

// --- primitives ------------------------------------------------------------

/// Appends an unsigned LEB128 varint (1–10 bytes).
void put_varint(std::string* out, std::uint64_t v);

/// Appends a zigzag-mapped signed varint.
void put_svarint(std::string* out, std::int64_t v);

/// Appends the 8 raw little-endian bytes of the IEEE-754 bit pattern, so
/// every double (including NaN payloads and signed zero) round-trips
/// exactly.
void put_f64(std::string* out, double v);

/// Appends a length-prefixed byte string.
void put_string(std::string* out, std::string_view s);

/// Bounds-checked sequential reader over an encoded buffer. Every get_*
/// returns false (and poisons the reader) on truncation or overflow;
/// callers check ok() once at the end instead of after every field.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool done() const noexcept {
    return ok_ && pos_ == data_.size();
  }
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

  bool get_varint(std::uint64_t* v);
  bool get_svarint(std::int64_t* v);
  bool get_f64(double* v);
  bool get_string(std::string* s);
  bool get_byte(std::uint8_t* b);

 private:
  bool fail() noexcept {
    ok_ = false;
    return false;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- digest ----------------------------------------------------------------

/// Encodes a digest as (zero, sum, min, max, pos bins, neg bins); the
/// count is implied by the bucket totals. ~10 bytes + ~3–6 bytes per
/// touched bucket, vs ~30 bytes per bucket in the JSON form.
void encode_digest(std::string* out, const Digest& d);

/// Decodes a digest; false on truncation, a zero-count bin (which a live
/// digest can never hold — rejecting it keeps encode∘decode a fixed
/// point), or a duplicate bin key.
[[nodiscard]] bool decode_digest(Reader* r, Digest* out);

// --- snapshot sets ---------------------------------------------------------

/// String interning callback: returns the dictionary id for `s`, assigning
/// one if unseen (the store writer's file-wide dictionary).
using StringIntern = std::function<std::uint64_t(std::string_view)>;
/// Reverse lookup: resolves a dictionary id; false on an unknown id.
using StringResolve = std::function<bool(std::uint64_t, std::string*)>;

/// Encodes one clock domain's snapshot vector as per-kind column blocks
/// (counters, then gauges, then digests), each block name-sorted. Between
/// gauges and digests sits the count of the retired histogram block,
/// always written as 0 so the fiveg-rs/v1 layout is unchanged. Only the raw columns are written — means and quantiles
/// are recomputed on decode through the same obs::snapshot_of path the
/// registry uses, so they cost nothing on disk and still match
/// bit-for-bit.
void encode_snapshots(std::string* out,
                      const std::vector<MetricSnapshot>& snaps,
                      const StringIntern& intern);

/// Decodes a snapshot set encoded by encode_snapshots into (name, kind)-
/// sorted MetricSnapshot structs with every derived field recomputed.
/// Returns false on malformed input, including a nonzero count in the
/// retired histogram block's slot.
[[nodiscard]] bool decode_snapshots(Reader* r, MetricClock clock,
                                    const StringResolve& resolve,
                                    std::vector<MetricSnapshot>* out);

}  // namespace fiveg::obs::codec
