// Retransmission queue: the unacknowledged-segment bookkeeping a real TCP
// sender keeps per connection.
//
// The demultiplexing study itself runs lossless, but a credible TCP
// substrate needs the send side's reliability machinery: segments enter
// when transmitted, leave when cumulatively acknowledged, and come back
// for retransmission when their RTO expires. Karn's algorithm is applied:
// a segment that has been retransmitted never produces an RTT sample.
//
// Segments live in a power-of-two ring that only grows; clear() keeps its
// storage, so a queue recycled by the socket table sends without
// allocating.
#ifndef TCPDEMUX_TCP_RETRANSMIT_QUEUE_H_
#define TCPDEMUX_TCP_RETRANSMIT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "tcp/seq_math.h"

namespace tcpdemux::tcp {

class RetransmitQueue {
 public:
  struct Segment {
    std::uint32_t seq = 0;
    std::uint32_t len = 0;  ///< payload bytes (SYN/FIN count as 1)
    double first_sent = 0.0;
    double last_sent = 0.0;
    std::uint32_t transmissions = 1;
  };

  /// Records a transmitted segment. Segments must be offered in sequence
  /// order (as a sender emits them).
  void on_send(std::uint32_t seq, std::uint32_t len, double now);

  /// Processes a cumulative acknowledgement: drops fully acked segments.
  /// Returns the RTT sample (now - first_sent of the newest fully-acked,
  /// never-retransmitted segment), or nullopt when Karn's rule or an
  /// empty ack forbids sampling.
  std::optional<double> on_ack(std::uint32_t ack, double now);

  /// The segment whose retransmission timer expires first, if its age
  /// exceeds `rto` at `now`. Marks it retransmitted and returns a copy.
  std::optional<Segment> take_expired(double now, double rto);

  /// Unconditionally marks the oldest outstanding segment retransmitted
  /// (fast retransmit on duplicate ACKs) and returns a copy; nullopt when
  /// nothing is outstanding.
  std::optional<Segment> take_front(double now);

  /// Bytes (plus SYN/FIN units) still unacknowledged.
  [[nodiscard]] std::uint64_t outstanding() const noexcept;

  /// The oldest outstanding segment. Requires !empty().
  [[nodiscard]] const Segment& front() const noexcept { return at(0); }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Segment slots allocated; clear() keeps them.
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  void clear() noexcept {
    head_ = 0;
    count_ = 0;
  }

 private:
  /// The i-th oldest outstanding segment.
  [[nodiscard]] Segment& at(std::size_t i) noexcept {
    return ring_[(head_ + i) & (ring_.size() - 1)];
  }
  [[nodiscard]] const Segment& at(std::size_t i) const noexcept {
    return ring_[(head_ + i) & (ring_.size() - 1)];
  }

  std::vector<Segment> ring_;  ///< power-of-two slots, oldest at head_
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace tcpdemux::tcp

#endif  // TCPDEMUX_TCP_RETRANSMIT_QUEUE_H_
