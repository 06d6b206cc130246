#include "tcp/retransmit_queue.h"

#include <algorithm>

namespace tcpdemux::tcp {

void RetransmitQueue::on_send(std::uint32_t seq, std::uint32_t len,
                              double now) {
  if (count_ == ring_.size()) {
    // Full: unroll into a ring twice the size, oldest first.
    std::vector<Segment> grown(std::max<std::size_t>(4, 2 * ring_.size()));
    for (std::size_t i = 0; i < count_; ++i) grown[i] = at(i);
    ring_ = std::move(grown);
    head_ = 0;
  }
  at(count_) = Segment{seq, len, now, now, 1};
  ++count_;
}

std::optional<double> RetransmitQueue::on_ack(std::uint32_t ack,
                                              double now) {
  std::optional<double> sample;
  while (count_ != 0) {
    const Segment& front = at(0);
    if (!seq_leq(front.seq + front.len, ack)) break;  // not fully covered
    if (front.transmissions == 1) {
      sample = now - front.first_sent;  // Karn: only clean transmissions
    }
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
  }
  return sample;
}

std::optional<RetransmitQueue::Segment> RetransmitQueue::take_expired(
    double now, double rto) {
  if (count_ == 0) return std::nullopt;
  Segment& oldest = at(0);
  if (now - oldest.last_sent < rto) return std::nullopt;
  oldest.last_sent = now;
  ++oldest.transmissions;
  return oldest;
}

std::optional<RetransmitQueue::Segment> RetransmitQueue::take_front(
    double now) {
  if (count_ == 0) return std::nullopt;
  Segment& oldest = at(0);
  oldest.last_sent = now;
  ++oldest.transmissions;
  return oldest;
}

std::uint64_t RetransmitQueue::outstanding() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < count_; ++i) total += at(i).len;
  return total;
}

}  // namespace tcpdemux::tcp
