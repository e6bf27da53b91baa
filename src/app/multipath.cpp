#include "app/multipath.h"

#include <algorithm>
#include <vector>

namespace fiveg::app {
namespace {

// A chunk stuck this long is reinjected on the other subflow (MPTCP-style
// opportunistic retransmission): it papers over a dead or stalled path.
constexpr sim::Time kReinjectTimeout = 8 * sim::kSecond;

// Transfers split into chunks of this size...
constexpr std::uint64_t kChunkBytes = 512 * 1024;
// ...and a subflow may hold this many unfinished; 4 keeps the fast pipe
// fed without head-of-line hoarding by the slow path.
constexpr int kChunksInFlightPerPath = 4;

}  // namespace

struct MultipathTransfer::Impl {
  struct Chunk {
    std::uint64_t bytes = 0;
    bool done = false;
    bool reinjected = false;
  };

  sim::Simulator* sim = nullptr;
  Config config;
  std::unique_ptr<TcpSession> a;
  std::unique_ptr<TcpSession> b;

  std::vector<Chunk> chunks;
  std::size_t next_chunk = 0;
  std::uint64_t bytes_a = 0;
  std::uint64_t bytes_b = 0;
  int outstanding_a = 0;
  int outstanding_b = 0;
  std::function<void()> done;
  bool finished = false;

  // Pull scheduling: a subflow that finishes a chunk immediately claims
  // the next one, so the split converges to the paths' rate ratio without
  // ever estimating a rate. A watchdog reinjects chunks stuck on a dead
  // path onto the other one.
  void pump() {
    while (next_chunk < chunks.size() &&
           outstanding_a < kChunksInFlightPerPath) {
      assign(next_chunk++, /*to_a=*/true);
    }
    while (next_chunk < chunks.size() &&
           outstanding_b < kChunksInFlightPerPath) {
      assign(next_chunk++, /*to_a=*/false);
    }
    maybe_finish();
  }

  void assign(std::size_t idx, bool to_a) {
    (to_a ? outstanding_a : outstanding_b)++;
    TcpSession* session = to_a ? a.get() : b.get();
    session->sender().send_bytes(chunks[idx].bytes, [this, idx, to_a] {
      on_complete(idx, to_a);
    });
    sim->schedule_in(kReinjectTimeout, [this, idx, to_a] {
      if (!chunks[idx].done && !chunks[idx].reinjected) {
        chunks[idx].reinjected = true;
        assign(idx, !to_a);  // reinject on the other subflow
      }
    });
  }

  void on_complete(std::size_t idx, bool via_a) {
    (via_a ? outstanding_a : outstanding_b)--;
    if (!chunks[idx].done) {
      chunks[idx].done = true;
      (via_a ? bytes_a : bytes_b) += chunks[idx].bytes;
    }
    pump();
  }

  void maybe_finish() {
    if (finished || !done) return;
    for (const Chunk& c : chunks) {
      if (!c.done) return;
    }
    finished = true;
    auto cb = std::move(done);
    done = nullptr;
    cb();
  }
};

MultipathTransfer::MultipathTransfer(sim::Simulator* simulator,
                                     net::PathNetwork* path_a,
                                     PathFanout* fanout_a,
                                     net::PathNetwork* path_b,
                                     PathFanout* fanout_b, Config config)
    : impl_(new Impl) {
  impl_->sim = simulator;
  impl_->config = config;
  impl_->a = std::make_unique<TcpSession>(simulator, path_a, fanout_a,
                                          config.transport, /*flow_id=*/41);
  impl_->b = std::make_unique<TcpSession>(simulator, path_b, fanout_b,
                                          config.transport, /*flow_id=*/42);
}

MultipathTransfer::~MultipathTransfer() = default;

void MultipathTransfer::transfer(std::uint64_t bytes,
                                 std::function<void()> done) {
  impl_->chunks.clear();
  impl_->next_chunk = 0;
  impl_->finished = false;
  for (std::uint64_t off = 0; off < bytes; off += kChunkBytes) {
    impl_->chunks.push_back(
        {std::min(kChunkBytes, bytes - off), false, false});
  }
  impl_->done = std::move(done);
  impl_->pump();
}

std::uint64_t MultipathTransfer::bytes_via_a() const { return impl_->bytes_a; }
std::uint64_t MultipathTransfer::bytes_via_b() const { return impl_->bytes_b; }
bool MultipathTransfer::finished() const { return impl_->finished; }

}  // namespace fiveg::app
