#include "net/delay_line.h"

#include <algorithm>
#include <utility>

namespace fiveg::net {

void DelayLine::push(sim::Time at, Packet p) {
  at = std::max(at, last_at_);
  last_at_ = at;
  if (size_ == buf_.size()) {
    std::vector<Entry> grown(std::max<std::size_t>(8, 2 * buf_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(grown);
    head_ = 0;
  }
  buf_[(head_ + size_) & (buf_.size() - 1)] =
      Entry{at, sim_->reserve_seq(at), std::move(p)};
  if (++size_ == 1) schedule_head();
}

Packet DelayLine::take_back() {
  Entry& tail = buf_[(head_ + --size_) & (buf_.size() - 1)];
  // last_at_ keeps the taken packet's time: a packet pushed later is due
  // no earlier anyway (net::Link re-pushes it at the same time, or a later
  // one at a later time).
  if (size_ == 0) {
    sim_->retract(head_event_);
  } else {
    sim_->release_reserved();
  }
  return std::move(tail.packet);
}

void DelayLine::schedule_head() {
  const Entry& head = buf_[head_];
  head_event_ = sim_->schedule_reserved(head.at, head.seq, label_,
                                        [this] { deliver_head(); });
}

void DelayLine::deliver_head() {
  Packet p = std::move(buf_[head_].packet);
  head_ = (head_ + 1) & (buf_.size() - 1);
  if (--size_ > 0) schedule_head();
  if (sink_ != nullptr) sink_->deliver(std::move(p));
}

}  // namespace fiveg::net
