#include "gauge.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "common.h"

namespace perfbench {
namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 17;  // 1 MB
constexpr std::size_t kPending = 16384;
constexpr int kEvents = 40000;
constexpr std::uint64_t kHorizon = 1 << 20;

struct Event {
  std::uint64_t at;
  std::unique_ptr<std::uint64_t[]> payload;  // 64 B, like a packet header
  bool operator>(const Event& other) const { return at > other.at; }
};

}  // namespace

void HostGauge::fill_table() {
  table_.resize(kTableWords);
  for (std::size_t i = 0; i < kTableWords; ++i) {
    table_[i] = i * 0x9e3779b97f4a7c15ULL;
  }
}

std::uint64_t HostGauge::lap() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;  // the same work every lap
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<Event> heap;
  heap.reserve(kPending + 1);
  const auto push = [&heap](std::uint64_t at) {
    auto payload = std::make_unique<std::uint64_t[]>(8);
    payload[0] = at;
    heap.push_back({at, std::move(payload)});
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };
  for (std::size_t i = 0; i < kPending; ++i) push(next() % kHorizon);
  std::uint64_t sum = 0;
  for (int i = 0; i < kEvents; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const Event e = std::move(heap.back());
    heap.pop_back();
    sum += table_[(e.payload[0] ^ next()) % kTableWords] ^ e.at;
    push(e.at + 1 + next() % kHorizon);
  }
  return sum;
}

void HostGauge::sample(std::size_t laps) {
  if (table_.empty()) fill_table();
  for (std::size_t i = 0; i < laps; ++i) {
    const auto start = Clock::now();
    digest_ = lap();
    laps_.push_back(seconds_since(start));
  }
}

double HostGauge::lap_s() const {
  return laps_.empty() ? kNominalLapS : quantile(laps_, kReportQuantile);
}

}  // namespace perfbench
