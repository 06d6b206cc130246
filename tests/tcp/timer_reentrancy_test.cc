// Re-entrant transmit callbacks. A TransmitFn may call back into its own
// SocketTable; during poll_retransmits() it may even erase the connection
// whose segment it was handed (socket_table.h states the rule). These tests
// run such callbacks while the timer walk and the fast-retransmit path are
// mid-flight; under ASan they also prove no freed PCB or record is touched.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "net/packet.h"
#include "tcp/socket_table.h"

namespace tcpdemux::tcp {
namespace {

using net::Ipv4Addr;
using net::TcpFlag;

constexpr Ipv4Addr kServer{10, 0, 0, 1};
constexpr Ipv4Addr kClient{10, 1, 0, 2};
constexpr std::uint16_t kPort = 1521;
constexpr std::uint16_t kFirstPort = 40000;
constexpr std::uint8_t kSyn = static_cast<std::uint8_t>(TcpFlag::kSyn);
constexpr std::uint8_t kAck = static_cast<std::uint8_t>(TcpFlag::kAck);

class TimerReentrancyTest : public ::testing::Test {
 protected:
  TimerReentrancyTest()
      : table_(core::DemuxConfig{core::Algorithm::kSequent},
               [this](std::vector<std::uint8_t> wire, const core::Pcb& pcb) {
                 on_transmit(std::move(wire), pcb);
               }) {
    table_.set_clock([this] { return now_; });
    table_.listen(kServer, kPort);
  }

  static net::FlowKey key(std::uint16_t port) {
    return net::FlowKey{kServer, kPort, kClient, port};
  }

  std::vector<std::uint8_t> frame(std::uint16_t port, std::uint8_t flags,
                                  std::uint32_t seq, std::uint32_t ack) {
    net::PacketBuilder b;
    b.from({kClient, port}).to({kServer, kPort}).seq(seq).flags(flags);
    if ((flags & static_cast<std::uint8_t>(TcpFlag::kAck)) != 0) {
      b.ack_seq(ack);
    }
    return b.build();
  }

  /// Opens `n` connections from kFirstPort upwards.
  void establish(int n) {
    for (int i = 0; i < n; ++i) {
      const auto port = static_cast<std::uint16_t>(kFirstPort + i);
      ASSERT_EQ(table_.deliver_wire(frame(port, kSyn, 100, 0)).status,
                SocketTable::Delivery::kNewConnection);
      const auto synack = net::Packet::parse(sent_.back());
      ASSERT_TRUE(synack.has_value());
      ASSERT_EQ(table_.deliver_wire(frame(port, kAck, 101, synack->tcp.seq + 1))
                    .status,
                SocketTable::Delivery::kDelivered);
      ASSERT_EQ(table_.accept(), table_.find(key(port)));
    }
  }

  core::Pcb& pcb(int i) {
    core::Pcb* p = table_.find(key(static_cast<std::uint16_t>(kFirstPort + i)));
    EXPECT_NE(p, nullptr);
    return *p;
  }

  /// Data segments sent per client port while `counting_` is set.
  std::map<std::uint16_t, int> data_segments_;
  bool counting_ = false;
  /// Runs (not re-entrantly) for every segment the table hands over.
  std::function<void(const core::Pcb&)> hook_;

  void on_transmit(std::vector<std::uint8_t> wire, const core::Pcb& p) {
    const auto packet = net::Packet::parse(wire);
    ASSERT_TRUE(packet.has_value());
    if (counting_ && !packet->payload.empty()) {
      ++data_segments_[packet->tcp.dst_port];
    }
    sent_.push_back(std::move(wire));
    if (hook_ && !in_hook_) {
      in_hook_ = true;
      hook_(p);
      in_hook_ = false;
    }
  }

  std::size_t poll_counting() {
    data_segments_.clear();
    counting_ = true;
    const std::size_t n = table_.poll_retransmits();
    counting_ = false;
    return n;
  }

  double now_ = 0.0;
  bool in_hook_ = false;
  std::vector<std::vector<std::uint8_t>> sent_;
  SocketTable table_;
};

TEST_F(TimerReentrancyTest, SendFromRetransmitCallbackGrowsRecordsSafely) {
  constexpr int kLossy = 8;
  constexpr int kIdle = 64;
  establish(kLossy + kIdle);
  for (int i = 0; i < kLossy; ++i) ASSERT_TRUE(table_.send_data(pcb(i), 100));
  // Each retransmission makes the callback send on idle connections, which
  // takes new timer records and outgrows the record array mid-walk.
  int next_idle = kLossy;
  hook_ = [&](const core::Pcb&) {
    for (int k = 0; k < kIdle / kLossy; ++k) {
      ASSERT_TRUE(table_.send_data(pcb(next_idle++), 50));
    }
  };
  now_ = 1.5;
  EXPECT_EQ(poll_counting(), static_cast<std::size_t>(kLossy));
  hook_ = nullptr;
  ASSERT_EQ(next_idle, kLossy + kIdle);
  for (int i = 0; i < kLossy + kIdle; ++i) {
    // One retransmission per lossy connection, one fresh segment per idle
    // one; the fresh ones are not due yet.
    EXPECT_EQ(data_segments_[static_cast<std::uint16_t>(kFirstPort + i)], 1)
        << "connection " << i;
  }
  EXPECT_EQ(table_.counters().retransmissions,
            static_cast<std::uint64_t>(kLossy));
  // The lossy ones backed off to 2 s; the idle ones are due 1 s after 1.5.
  now_ = 2.6;
  EXPECT_EQ(poll_counting(), static_cast<std::size_t>(kIdle));
}

TEST_F(TimerReentrancyTest, EraseOfRetransmittedConnectionFromCallback) {
  constexpr int kConns = 10;
  establish(kConns);
  for (int i = 0; i < kConns; ++i) ASSERT_TRUE(table_.send_data(pcb(i), 100));
  hook_ = [&](const core::Pcb& p) {
    const net::FlowKey k = p.key;  // erase destroys `p`
    EXPECT_TRUE(table_.erase(k));
  };
  now_ = 1.5;
  EXPECT_EQ(poll_counting(), static_cast<std::size_t>(kConns));
  hook_ = nullptr;
  EXPECT_EQ(table_.connection_count(), 0u);
  EXPECT_EQ(data_segments_.size(), static_cast<std::size_t>(kConns));
  now_ = 100.0;
  EXPECT_EQ(table_.poll_retransmits(), 0u);
  EXPECT_EQ(table_.reap_closed(1.0), 0u);
}

TEST_F(TimerReentrancyTest, EraseOfOtherConnectionsDuringWalk) {
  constexpr int kConns = 12;
  establish(kConns);
  for (int i = 0; i < kConns; ++i) ASSERT_TRUE(table_.send_data(pcb(i), 100));
  // The first retransmission erases every third connection other than its
  // own, some of them already visited by the walk and some not.
  std::vector<std::uint16_t> erased;
  hook_ = [&](const core::Pcb& p) {
    if (!erased.empty()) return;
    for (int i = 0; i < kConns; ++i) {
      const auto port = static_cast<std::uint16_t>(kFirstPort + i);
      if (i % 3 == 0 && port != p.key.foreign_port) {
        EXPECT_TRUE(table_.erase(key(port)));
        erased.push_back(port);
      }
    }
  };
  now_ = 1.5;
  const std::size_t resent = poll_counting();
  hook_ = nullptr;
  ASSERT_FALSE(erased.empty());
  EXPECT_EQ(table_.connection_count(), kConns - erased.size());
  // Every survivor is retransmitted exactly once; an erased connection at
  // most once (before it was erased).
  for (int i = 0; i < kConns; ++i) {
    const auto port = static_cast<std::uint16_t>(kFirstPort + i);
    const bool gone =
        std::find(erased.begin(), erased.end(), port) != erased.end();
    if (gone) {
      EXPECT_LE(data_segments_[port], 1) << "connection " << i;
    } else {
      EXPECT_EQ(data_segments_[port], 1) << "connection " << i;
    }
  }
  EXPECT_EQ(resent, table_.counters().retransmissions);
}

TEST_F(TimerReentrancyTest, SendFromFastRetransmitCallback) {
  constexpr int kIdle = 40;
  establish(1 + kIdle);
  core::Pcb& lossy = pcb(0);
  const std::uint32_t una = lossy.snd_nxt;
  ASSERT_TRUE(table_.send_data(lossy, 100));
  ASSERT_TRUE(table_.send_data(lossy, 100));
  const std::uint32_t seq = lossy.rcv_nxt;
  for (int dup = 0; dup < 2; ++dup) {
    ASSERT_EQ(table_.deliver_wire(frame(kFirstPort, kAck, seq, una)).status,
              SocketTable::Delivery::kDelivered);
  }
  // The third duplicate ACK fast-retransmits inside deliver; the callback
  // then takes a timer record for every idle connection.
  hook_ = [&](const core::Pcb&) {
    for (int i = 1; i <= kIdle; ++i) ASSERT_TRUE(table_.send_data(pcb(i), 10));
  };
  counting_ = true;
  ASSERT_EQ(table_.deliver_wire(frame(kFirstPort, kAck, seq, una)).status,
            SocketTable::Delivery::kDelivered);
  counting_ = false;
  hook_ = nullptr;
  EXPECT_EQ(table_.counters().retransmissions, 1u);
  EXPECT_EQ(data_segments_[kFirstPort], 1);
  // The lossy connection's queue survived the callback: acknowledging
  // everything empties it, and nothing is left to time out.
  ASSERT_EQ(table_.deliver_wire(frame(kFirstPort, kAck, seq, lossy.snd_nxt))
                .status,
            SocketTable::Delivery::kDelivered);
  for (int i = 1; i <= kIdle; ++i) {
    const auto port = static_cast<std::uint16_t>(kFirstPort + i);
    ASSERT_EQ(table_.deliver_wire(frame(port, kAck, 101, pcb(i).snd_nxt)).status,
              SocketTable::Delivery::kDelivered);
  }
  now_ = 100.0;
  EXPECT_EQ(table_.poll_retransmits(), 0u);
}

}  // namespace
}  // namespace tcpdemux::tcp
