// Host-level differential test: the same frame sequence goes into one
// tcp::Host per demux backend, and every backend must answer alike — the
// same delivery statuses, the same Counters and byte-identical emitted
// segments. Only the demultiplexing strategy differs between the hosts, so
// anything else that diverges (retransmit or close-timer bookkeeping keyed
// by PCB, iteration order over pointers) is a bug this test names.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/demux_registry.h"
#include "net/fragment.h"
#include "net/packet.h"
#include "tcp/host.h"
#include "tcp/seq_math.h"

namespace tcpdemux::tcp {
namespace {

using net::Ipv4Addr;
using net::TcpFlag;
using Delivery = SocketTable::Delivery;

constexpr Ipv4Addr kServer{10, 0, 0, 1};
constexpr Ipv4Addr kClient{10, 1, 0, 2};
constexpr std::uint16_t kPort = 1521;
constexpr std::uint16_t kFirstClientPort = 40000;
constexpr std::uint16_t kStalePort = 39999;  // below every client port
constexpr double kMsl = 1.0;
constexpr int kConnections = 24;

// One spec per registry family, plus the incremental-resize variants.
const char* const kSpecs[] = {
    "bsd",          "mtf",
    "srcache",      "sequent:19:crc32",
    "hashed_mtf",   "connection_id",
    "dynamic:incremental",
    "rcu:19:crc32", "flat",
    "flat16:incremental",
    "sharded:4:flat16",
};

/// The client's view of one connection.
struct Conn {
  std::uint16_t port = 0;
  std::uint32_t c_nxt = 0;  ///< next client sequence number
  std::uint32_t s_max = 0;  ///< end of the server's sequence space seen
  [[nodiscard]] net::FlowKey key() const {
    return net::FlowKey{kServer, kPort, kClient, port};
  }
};

std::vector<std::uint8_t> frame(std::uint16_t port, std::uint8_t flags,
                                std::uint32_t seq, std::uint32_t ack,
                                std::size_t payload = 0) {
  net::PacketBuilder b;
  b.from({kClient, port}).to({kServer, kPort}).seq(seq).flags(flags);
  if ((flags & static_cast<std::uint8_t>(TcpFlag::kAck)) != 0) {
    b.ack_seq(ack);
  }
  return b.payload_size(payload).build();
}

constexpr std::uint8_t kAck = static_cast<std::uint8_t>(TcpFlag::kAck);
constexpr std::uint8_t kSyn = static_cast<std::uint8_t>(TcpFlag::kSyn);
constexpr std::uint8_t kFinAck = TcpFlag::kFin | TcpFlag::kAck;
constexpr std::uint8_t kPshAck = TcpFlag::kPsh | TcpFlag::kAck;

bool same_counters(const SocketTable::Counters& a,
                   const SocketTable::Counters& b) {
  return a.delivered == b.delivered &&
         a.new_connections == b.new_connections &&
         a.resets_sent == b.resets_sent && a.parse_errors == b.parse_errors &&
         a.retransmissions == b.retransmissions;
}

/// One Host per spec, all fed the same frames and calls on one clock. Every
/// operation checks the hosts against the first and returns its result.
class Fleet {
 public:
  Fleet() {
    for (const char* spec : kSpecs) {
      auto node = std::make_unique<Node>();
      node->spec = spec;
      node->host = std::make_unique<Host>(
          core::parse_demux_spec(spec).value(),
          [n = node.get()](std::vector<std::uint8_t> wire, const core::Pcb&) {
            n->sent.push_back(std::move(wire));
          });
      SocketTable& table = node->host->table();
      table.listen(kServer, kPort);
      table.enable_syn_cache();
      table.set_clock([this] { return now; });
      nodes_.push_back(std::move(node));
    }
  }

  /// Host::input on every host; returns the first host's status.
  Delivery input(const std::vector<std::uint8_t>& wire) {
    Delivery first = Delivery::kParseError;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const auto r = nodes_[i]->host->input(wire, now);
      if (i == 0) {
        first = r.status;
      } else {
        EXPECT_EQ(r.status, first) << nodes_[i]->spec << " at step " << step_;
      }
    }
    settle();
    return first;
  }

  bool send_data(const Conn& c, std::uint32_t len) {
    return on_pcb(c, [len](SocketTable& t, core::Pcb& p) {
      return t.send_data(p, len);
    });
  }
  bool close(const Conn& c) {
    return on_pcb(c, [](SocketTable& t, core::Pcb& p) { return t.close(p); });
  }

  /// accept() on every host; returns whether a connection was accepted.
  bool accept(const Conn& c) {
    bool first = false;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const core::Pcb* pcb = nodes_[i]->host->table().accept();
      const bool ok = pcb != nullptr && pcb->key == c.key();
      if (i == 0) first = ok;
      EXPECT_EQ(ok, first) << nodes_[i]->spec << " at step " << step_;
    }
    settle();
    return first;
  }

  struct TimerResult {
    std::size_t resent = 0;
    std::size_t reaped = 0;
  };
  /// The periodic timers, on every host.
  TimerResult timers() {
    TimerResult first;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      SocketTable& t = nodes_[i]->host->table();
      TimerResult r;
      r.resent = t.poll_retransmits();
      r.reaped = t.reap_closed(kMsl);
      (void)t.expire_embryonic(now);
      if (i == 0) {
        first = r;
      } else {
        EXPECT_EQ(r.resent, first.resent) << nodes_[i]->spec;
        EXPECT_EQ(r.reaped, first.reaped) << nodes_[i]->spec;
      }
    }
    settle();
    return first;
  }

  /// Segments the first host emitted during the last operation.
  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& sent() const {
    return last_sent_;
  }
  [[nodiscard]] const SocketTable& table() const {
    return nodes_.front()->host->table();
  }

  double now = 0.0;

 private:
  struct Node {
    std::string spec;
    std::vector<std::vector<std::uint8_t>> sent;
    std::unique_ptr<Host> host;
  };

  template <typename Op>
  bool on_pcb(const Conn& c, Op op) {
    bool first = false;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      SocketTable& t = nodes_[i]->host->table();
      core::Pcb* pcb = t.find(c.key());
      const bool ok = pcb != nullptr && op(t, *pcb);
      if (i == 0) first = ok;
      EXPECT_EQ(ok, first) << nodes_[i]->spec << " at step " << step_;
    }
    settle();
    return first;
  }

  /// Compares every host's emitted segments, counters and size with the
  /// first host's, then starts the next step.
  void settle() {
    const Node& ref = *nodes_.front();
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
      const Node& n = *nodes_[i];
      EXPECT_EQ(n.sent, ref.sent)
          << n.spec << " emitted different bytes at step " << step_;
      EXPECT_TRUE(same_counters(n.host->table().counters(),
                                ref.host->table().counters()))
          << n.spec << " counters diverged at step " << step_;
      EXPECT_EQ(n.host->table().connection_count(),
                ref.host->table().connection_count())
          << n.spec << " at step " << step_;
    }
    last_sent_ = ref.sent;
    for (auto& n : nodes_) n->sent.clear();
    ++step_;
  }

  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::vector<std::uint8_t>> last_sent_;
  std::uint64_t step_ = 0;
};

/// Drives a Fleet as the clients of kConnections connections would.
class HostDifferential : public ::testing::Test {
 protected:
  /// Learns the server's sequence space from what the first host sent.
  void learn() {
    for (const auto& wire : fleet_.sent()) {
      const auto p = net::Packet::parse(wire);
      ASSERT_TRUE(p.has_value());
      for (Conn& c : conns_) {
        if (p->tcp.dst_port != c.port) continue;
        const std::uint32_t end =
            p->tcp.seq + static_cast<std::uint32_t>(p->payload.size()) +
            (p->tcp.has(TcpFlag::kSyn) ? 1 : 0) +
            (p->tcp.has(TcpFlag::kFin) ? 1 : 0);
        if (seq_gt(end, c.s_max)) c.s_max = end;
      }
    }
  }

  Delivery send(const std::vector<std::uint8_t>& wire) {
    const Delivery d = fleet_.input(wire);
    learn();
    return d;
  }
  Delivery ack(const Conn& c, std::uint32_t ackno) {
    return send(frame(c.port, kAck, c.c_nxt, ackno));
  }
  void respond(const Conn& c, std::uint32_t len) {
    EXPECT_TRUE(fleet_.send_data(c, len));
    learn();
  }
  void close(const Conn& c) {
    EXPECT_TRUE(fleet_.close(c));
    learn();
  }
  Fleet::TimerResult timers() {
    const auto r = fleet_.timers();
    learn();
    return r;
  }

  /// Handshakes every connection through the SYN cache.
  void open_all() {
    for (int i = 0; i < kConnections; ++i) {
      Conn c;
      c.port = static_cast<std::uint16_t>(kFirstClientPort + i);
      c.c_nxt = 1000u * static_cast<std::uint32_t>(i + 1);
      conns_.push_back(c);
    }
    for (Conn& c : conns_) {
      const auto syn = frame(c.port, kSyn, c.c_nxt, 0);
      ASSERT_EQ(send(syn), Delivery::kSynCached);
      if (c.port % 5 == 0) {  // a retransmitted SYN keeps its embryo
        ASSERT_EQ(send(syn), Delivery::kSynCached);
      }
      c.c_nxt += 1;
    }
    for (Conn& c : conns_) {
      ASSERT_EQ(ack(c, c.s_max), Delivery::kNewConnection);
      EXPECT_TRUE(fleet_.accept(c));
    }
  }

  Fleet fleet_;
  std::vector<Conn> conns_;
};

TEST_F(HostDifferential, AllBackendsAnswerAlike) {
  std::mt19937 rng(7);
  open_all();
  ASSERT_EQ(fleet_.table().connection_count(),
            static_cast<std::size_t>(kConnections));

  // Established TPC/A-style traffic: query, ACK + response, response ACK,
  // with stale-tuple ACKs (RST) and corrupted frames mixed in.
  std::vector<std::size_t> order(conns_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (int round = 0; round < 6; ++round) {
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::size_t i : order) {
      Conn& c = conns_[i];
      const std::size_t query = 40 + rng() % 200;
      ASSERT_EQ(send(frame(c.port, kPshAck, c.c_nxt, c.s_max, query)),
                Delivery::kDelivered);
      c.c_nxt += static_cast<std::uint32_t>(query);
      respond(c, 100 + static_cast<std::uint32_t>(rng() % 300));
      if (rng() % 4 == 0) {
        const auto seq = static_cast<std::uint32_t>(rng());
        const auto ackno = static_cast<std::uint32_t>(rng());
        EXPECT_EQ(send(frame(kStalePort, kAck, seq, ackno)), Delivery::kReset);
      }
      if (rng() % 6 == 0) {
        auto bad = frame(c.port, kAck, c.c_nxt, c.s_max);
        bad[20 + 16] ^= 0xff;  // TCP checksum
        EXPECT_EQ(send(bad), Delivery::kParseError);
      }
    }
    for (const std::size_t i : order) {
      ASSERT_EQ(ack(conns_[i], conns_[i].s_max), Delivery::kDelivered);
    }
    fleet_.now += 0.05;
    EXPECT_EQ(timers().resent, 0u);
  }

  // A query that arrives in fragments.
  {
    Conn& c = conns_.front();
    auto big = frame(c.port, kPshAck, c.c_nxt, c.s_max, 1200);
    auto h = net::Ipv4Header::parse(big);
    h->dont_fragment = false;
    h->serialize(big);
    const auto pieces = net::fragment_packet(big, 400);
    ASSERT_GT(pieces.size(), 2u);
    for (std::size_t i = 0; i + 1 < pieces.size(); ++i) {
      EXPECT_EQ(send(pieces[i]), Delivery::kParseError);  // incomplete
    }
    EXPECT_EQ(send(pieces.back()), Delivery::kDelivered);
    c.c_nxt += 1200;
    ASSERT_EQ(fleet_.sent().size(), 1u);  // the ACK
  }

  // Loss: two responses per connection go unacknowledged. The RTO resends
  // the oldest; on half the connections three duplicate ACKs then trigger a
  // fast retransmit; finally everything is acknowledged.
  std::vector<std::uint32_t> acked(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    acked[i] = conns_[i].s_max;
    respond(conns_[i], 200);
    respond(conns_[i], 120);
  }
  fleet_.now += 1.5;
  EXPECT_EQ(timers().resent, conns_.size());
  fleet_.now += 0.1;
  EXPECT_EQ(timers().resent, 0u);  // backed off
  for (std::size_t i = 0; i < conns_.size(); i += 2) {
    for (int dup = 0; dup < 3; ++dup) {
      ASSERT_EQ(ack(conns_[i], acked[i]), Delivery::kDelivered);
      EXPECT_EQ(fleet_.sent().size(), dup == 2 ? 1u : 0u);
    }
  }
  for (Conn& c : conns_) ASSERT_EQ(ack(c, c.s_max), Delivery::kDelivered);
  fleet_.now += 5.0;
  EXPECT_EQ(timers().resent, 0u);  // nothing outstanding
  EXPECT_GT(fleet_.table().counters().retransmissions, conns_.size());

  // Closing: a third close actively (FIN_WAIT -> TIME_WAIT), a third
  // passively (CLOSE_WAIT -> LAST_ACK -> CLOSED), a third are reset.
  std::size_t time_wait = 0;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    switch (i % 3) {
      case 0:
        close(c);
        ASSERT_EQ(ack(c, c.s_max), Delivery::kDelivered);
        ASSERT_EQ(send(frame(c.port, kFinAck, c.c_nxt, c.s_max)),
                  Delivery::kDelivered);
        c.c_nxt += 1;
        ++time_wait;
        break;
      case 1:
        ASSERT_EQ(send(frame(c.port, kFinAck, c.c_nxt, c.s_max)),
                  Delivery::kDelivered);
        c.c_nxt += 1;
        close(c);
        ASSERT_EQ(ack(c, c.s_max), Delivery::kDelivered);
        break;
      default:
        ASSERT_EQ(send(frame(c.port, static_cast<std::uint8_t>(TcpFlag::kRst),
                             c.c_nxt, 0)),
                  Delivery::kDelivered);
        break;
    }
  }
  // CLOSED connections go at once; TIME_WAIT ones after 2 * MSL.
  fleet_.now += 0.1;
  EXPECT_EQ(timers().reaped, conns_.size() - time_wait);
  fleet_.now += 2.0 * kMsl;
  EXPECT_EQ(timers().reaped, time_wait);
  EXPECT_EQ(fleet_.table().connection_count(), 0u);

  // Their tuples are stale now.
  for (const Conn& c : conns_) {
    EXPECT_EQ(ack(c, c.s_max), Delivery::kReset);
  }
  const auto& counters = fleet_.table().counters();
  EXPECT_EQ(counters.new_connections, static_cast<std::uint64_t>(kConnections));
  EXPECT_GT(counters.resets_sent, conns_.size());
  EXPECT_GT(counters.parse_errors, 0u);
}

}  // namespace
}  // namespace tcpdemux::tcp
