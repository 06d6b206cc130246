#include "tcp/retransmit_queue.h"

#include <gtest/gtest.h>

namespace tcpdemux::tcp {
namespace {

TEST(RetransmitQueue, StartsEmpty) {
  RetransmitQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.outstanding(), 0u);
  EXPECT_FALSE(q.take_expired(100.0, 1.0).has_value());
}

TEST(RetransmitQueue, AckDropsCoveredSegments) {
  RetransmitQueue q;
  q.on_send(1000, 100, 0.0);
  q.on_send(1100, 100, 0.1);
  q.on_send(1200, 100, 0.2);
  EXPECT_EQ(q.outstanding(), 300u);
  (void)q.on_ack(1200, 0.3);  // covers the first two
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.outstanding(), 100u);
}

TEST(RetransmitQueue, PartialAckKeepsSegment) {
  RetransmitQueue q;
  q.on_send(1000, 100, 0.0);
  (void)q.on_ack(1050, 0.1);  // covers only half
  EXPECT_EQ(q.size(), 1u);
}

TEST(RetransmitQueue, AckYieldsRttSample) {
  RetransmitQueue q;
  q.on_send(1000, 100, 1.0);
  const auto sample = q.on_ack(1100, 1.25);
  ASSERT_TRUE(sample.has_value());
  EXPECT_NEAR(*sample, 0.25, 1e-12);
}

TEST(RetransmitQueue, KarnsRuleSuppressesRetransmittedSamples) {
  RetransmitQueue q;
  q.on_send(1000, 100, 1.0);
  const auto expired = q.take_expired(2.5, 1.0);
  ASSERT_TRUE(expired.has_value());
  EXPECT_EQ(expired->transmissions, 2u);
  const auto sample = q.on_ack(1100, 3.0);
  EXPECT_FALSE(sample.has_value()) << "retransmitted segment sampled";
  EXPECT_TRUE(q.empty());
}

TEST(RetransmitQueue, SampleComesFromNewestCleanSegment) {
  RetransmitQueue q;
  q.on_send(1000, 100, 1.0);
  q.on_send(1100, 100, 2.0);
  const auto sample = q.on_ack(1200, 2.5);
  ASSERT_TRUE(sample.has_value());
  EXPECT_NEAR(*sample, 0.5, 1e-12);  // from the second segment
}

TEST(RetransmitQueue, ExpiryHonorsRto) {
  RetransmitQueue q;
  q.on_send(1000, 100, 0.0);
  EXPECT_FALSE(q.take_expired(0.5, 1.0).has_value());  // too young
  const auto expired = q.take_expired(1.5, 1.0);
  ASSERT_TRUE(expired.has_value());
  EXPECT_EQ(expired->seq, 1000u);
  // Retransmission resets the timer.
  EXPECT_FALSE(q.take_expired(2.0, 1.0).has_value());
  EXPECT_TRUE(q.take_expired(2.6, 1.0).has_value());
}

TEST(RetransmitQueue, OldestSegmentExpiresFirst) {
  RetransmitQueue q;
  q.on_send(1000, 100, 0.0);
  q.on_send(1100, 100, 5.0);
  const auto expired = q.take_expired(6.0, 1.0);
  ASSERT_TRUE(expired.has_value());
  EXPECT_EQ(expired->seq, 1000u);
}

TEST(RetransmitQueue, SequenceWraparound) {
  RetransmitQueue q;
  q.on_send(0xffffff00u, 0x200, 0.0);  // wraps past zero
  const auto sample = q.on_ack(0x100, 0.1);
  ASSERT_TRUE(sample.has_value());
  EXPECT_TRUE(q.empty());
}

TEST(RetransmitQueue, DuplicateAckYieldsNothing) {
  RetransmitQueue q;
  q.on_send(1000, 100, 0.0);
  (void)q.on_ack(1100, 0.2);
  const auto dup = q.on_ack(1100, 0.3);
  EXPECT_FALSE(dup.has_value());
}

TEST(RetransmitQueue, ClearEmpties) {
  RetransmitQueue q;
  q.on_send(1, 1, 0.0);
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(RetransmitQueue, ClearKeepsStorage) {
  RetransmitQueue q;
  for (std::uint32_t i = 0; i < 5; ++i) q.on_send(100 * i, 100, 0.0);
  const std::size_t capacity = q.capacity();
  EXPECT_GE(capacity, 5u);
  q.clear();
  for (std::uint32_t i = 0; i < 5; ++i) q.on_send(100 * i, 100, 1.0);
  EXPECT_EQ(q.capacity(), capacity);
}

TEST(RetransmitQueue, RingWrapsAndGrowsInSequenceOrder) {
  RetransmitQueue q;
  std::uint32_t next = 1000;
  std::uint32_t una = next;
  // Keep a few segments outstanding while the head walks round the ring,
  // then outgrow it mid-wrap.
  for (int round = 0; round < 20; ++round) {
    const int burst = round < 15 ? 3 : 9;
    for (int i = 0; i < burst; ++i) {
      q.on_send(next, 10, static_cast<double>(round));
      next += 10;
    }
    const auto oldest = q.take_front(static_cast<double>(round));
    ASSERT_TRUE(oldest.has_value());
    EXPECT_EQ(oldest->seq, una);
    una += 20;  // acknowledge two segments
    (void)q.on_ack(una, static_cast<double>(round));
    EXPECT_EQ(q.outstanding(), std::uint64_t{next - una});
  }
  (void)q.on_ack(next, 30.0);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace tcpdemux::tcp
