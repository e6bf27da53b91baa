#include "obs/codec.h"

#include <cstring>
#include <utility>

namespace fiveg::obs::codec {

namespace {

std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

// A sparse (key, count) bin list with zigzag keys, emitted in the order given (the callers pass
// key-ordered bin lists, so the wire order is canonical and encode∘decode
// is a fixed point).
void put_bins(std::string* out, const Bins& bins) {
  put_varint(out, bins.size());
  for (const auto& [key, count] : bins) {
    put_svarint(out, key);
    put_varint(out, count);
  }
}

// Decodes a bin list. Strictly ascending keys within [lo, hi] and nonzero
// counts are required: that is the only form a live digest can export, so
// anything else is corruption.
bool get_bins(Reader* r, std::int32_t lo, std::int32_t hi, Bins* out) {
  std::uint64_t n = 0;
  if (!r->get_varint(&n)) return false;
  std::int64_t prev = std::int64_t{lo} - 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::int64_t key = 0;
    std::uint64_t count = 0;
    if (!r->get_svarint(&key) || !r->get_varint(&count)) return false;
    if (count == 0 || key <= prev || key > hi) return false;
    prev = key;
    out->emplace_back(static_cast<std::int32_t>(key), count);
  }
  return true;
}

bool get_digest_bins(Reader* r, Bins* pos, Bins* neg) {
  return get_bins(r, -Digest::kMaxKey, Digest::kMaxKey, pos) &&
         get_bins(r, -Digest::kMaxKey, Digest::kMaxKey, neg);
}

}  // namespace

void put_varint(std::string* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void put_svarint(std::string* out, std::int64_t v) {
  put_varint(out, zigzag(v));
}

void put_f64(std::string* out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

void put_string(std::string* out, std::string_view s) {
  put_varint(out, s.size());
  out->append(s.data(), s.size());
}

bool Reader::get_varint(std::uint64_t* v) {
  if (!ok_) return false;
  std::uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= data_.size()) return fail();
    const auto byte = static_cast<std::uint8_t>(data_[pos_++]);
    result |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // Reject non-canonical encodings that overflow 64 bits.
      if (shift == 63 && (byte & 0x7e) != 0) return fail();
      *v = result;
      return true;
    }
  }
  return fail();
}

bool Reader::get_svarint(std::int64_t* v) {
  std::uint64_t raw = 0;
  if (!get_varint(&raw)) return false;
  *v = unzigzag(raw);
  return true;
}

bool Reader::get_f64(double* v) {
  if (!ok_) return false;
  if (data_.size() - pos_ < 8) return fail();
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(
                                                           i)]))
            << (8 * i);
  }
  pos_ += 8;
  std::memcpy(v, &bits, sizeof *v);
  return true;
}

bool Reader::get_string(std::string* s) {
  std::uint64_t len = 0;
  if (!get_varint(&len)) return false;
  if (len > data_.size() - pos_) return fail();
  s->assign(data_.data() + pos_, static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return true;
}

bool Reader::get_byte(std::uint8_t* b) {
  if (!ok_) return false;
  if (pos_ >= data_.size()) return fail();
  *b = static_cast<std::uint8_t>(data_[pos_++]);
  return true;
}

void encode_digest(std::string* out, const Digest& d) {
  put_varint(out, d.zero_count());
  put_f64(out, d.sum());
  put_f64(out, d.min());
  put_f64(out, d.max());
  put_bins(out, d.positive_bins());
  put_bins(out, d.negative_bins());
}

bool decode_digest(Reader* r, Digest* out) {
  std::uint64_t zero = 0;
  double sum = 0, min = 0, max = 0;
  if (!r->get_varint(&zero) || !r->get_f64(&sum) || !r->get_f64(&min) ||
      !r->get_f64(&max)) {
    return false;
  }
  Bins pos;
  Bins neg;
  if (!get_digest_bins(r, &pos, &neg)) return false;
  *out = Digest::restore(zero, sum, min, max, pos, neg);
  return true;
}

void encode_snapshots(std::string* out,
                      const std::vector<MetricSnapshot>& snaps,
                      const StringIntern& intern) {
  // Column blocks per kind; within a block the input's (name, kind) sort
  // order is preserved, so each block is name-sorted on its own.
  using Kind = MetricSnapshot::Kind;
  const auto of_kind = [&snaps](Kind kind) {
    std::vector<const MetricSnapshot*> out_snaps;
    for (const MetricSnapshot& s : snaps) {
      if (s.kind == kind) out_snaps.push_back(&s);
    }
    return out_snaps;
  };

  const auto counters = of_kind(Kind::kCounter);
  put_varint(out, counters.size());
  for (const MetricSnapshot* s : counters) {
    put_varint(out, intern(s->name));
    put_varint(out, s->count);
  }

  const auto gauges = of_kind(Kind::kGauge);
  put_varint(out, gauges.size());
  for (const MetricSnapshot* s : gauges) {
    put_varint(out, intern(s->name));
    put_f64(out, s->value);
    put_f64(out, s->max);
  }

  put_varint(out, 0);  // the retired histogram block: always empty

  const auto digests = of_kind(Kind::kDigest);
  put_varint(out, digests.size());
  for (const MetricSnapshot* s : digests) {
    put_varint(out, intern(s->name));
    put_varint(out, s->zero_count);
    put_f64(out, s->sum);
    put_f64(out, s->min);
    put_f64(out, s->max);
    put_bins(out, s->bins);
    put_bins(out, s->neg_bins);
  }
}

bool decode_snapshots(Reader* r, MetricClock clock,
                      const StringResolve& resolve,
                      std::vector<MetricSnapshot>* out) {
  const auto get_name = [&](std::string* name) {
    std::uint64_t id = 0;
    return r->get_varint(&id) && resolve(id, name);
  };

  std::uint64_t n = 0;
  if (!r->get_varint(&n)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name;
    std::uint64_t value = 0;
    if (!get_name(&name) || !r->get_varint(&value)) return false;
    Counter c;
    c.add(value);
    out->push_back(snapshot_of(name, clock, c));
  }

  if (!r->get_varint(&n)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name;
    double value = 0, max = 0;
    if (!get_name(&name) || !r->get_f64(&value) || !r->get_f64(&max)) {
      return false;
    }
    // Gauges have no derivable state: rebuild the snapshot directly (the
    // high-water mark of a restored gauge object could not distinguish
    // "never set" from "max 0", but the snapshot carries the flat fields).
    MetricSnapshot s;
    s.name = name;
    s.kind = MetricSnapshot::Kind::kGauge;
    s.clock = clock;
    s.value = value;
    s.max = max;
    out->push_back(std::move(s));
  }

  if (!r->get_varint(&n) || n != 0) return false;

  if (!r->get_varint(&n)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name;
    std::uint64_t zero = 0;
    double sum = 0, min = 0, max = 0;
    if (!get_name(&name) || !r->get_varint(&zero) || !r->get_f64(&sum) ||
        !r->get_f64(&min) || !r->get_f64(&max)) {
      return false;
    }
    Bins pos;
    Bins neg;
    if (!get_digest_bins(r, &pos, &neg)) return false;
    const Digest d = Digest::restore(zero, sum, min, max, pos, neg);
    out->push_back(snapshot_of(name, clock, d));
  }

  sort_snapshots(out);
  return true;
}

}  // namespace fiveg::obs::codec
