// Allocation regression test: the steady-state receive path allocates
// nothing but the one wire buffer per emitted segment that TransmitFn takes
// by value, and neither does connection churn through a slab-backed table.
//
// This binary replaces the global operator new family with a counting
// forwarder to malloc, so every heap allocation in the process is counted
// (and ASan still sees every block). It is its own executable so the
// replacement touches no other test.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "core/demux_registry.h"
#include "net/fragment.h"
#include "net/packet.h"
#include "tcp/host.h"

namespace {

// Single-threaded test: a plain counter is exact.
std::uint64_t g_allocations = 0;

void* counted_malloc(std::size_t size) noexcept {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned(std::size_t size, std::align_val_t align) noexcept {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

template <typename... Align>
void* counted_or_throw(std::size_t size, Align... align) {
  void* p = nullptr;
  if constexpr (sizeof...(Align) == 0) {
    p = counted_malloc(size);
  } else {
    p = counted_aligned(size, align...);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_or_throw(n); }
void* operator new[](std::size_t n) { return counted_or_throw(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tcpdemux::tcp {
namespace {

using net::Ipv4Addr;
using net::TcpFlag;
using Delivery = SocketTable::Delivery;

constexpr Ipv4Addr kServer{10, 0, 0, 1};
constexpr Ipv4Addr kClient{10, 1, 0, 2};
constexpr std::uint16_t kPort = 1521;
constexpr std::uint16_t kFirstPort = 40000;
constexpr int kConnections = 32;
constexpr std::uint8_t kSyn = static_cast<std::uint8_t>(TcpFlag::kSyn);
constexpr std::uint8_t kAck = static_cast<std::uint8_t>(TcpFlag::kAck);
constexpr std::uint8_t kPshAck = TcpFlag::kPsh | TcpFlag::kAck;
constexpr std::uint8_t kFinAck = TcpFlag::kFin | TcpFlag::kAck;

std::vector<std::uint8_t> frame(std::uint16_t port, std::uint8_t flags,
                                std::uint32_t seq, std::uint32_t ack,
                                std::size_t payload = 0) {
  net::PacketBuilder b;
  b.from({kClient, port}).to({kServer, kPort}).seq(seq).flags(flags);
  if ((flags & kAck) != 0) b.ack_seq(ack);
  return b.payload_size(payload).build();
}

/// gtest instance name for a registry spec ("flat16:incremental" ->
/// "flat16_incremental").
std::string spec_test_name(const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  for (char& ch : name) {
    if (ch == ':') ch = '_';
  }
  return name;
}

/// Allocations made by `op`, and segments it emitted.
struct Cost {
  std::uint64_t allocations = 0;
  std::uint64_t segments = 0;
};

class AllocationTest : public ::testing::TestWithParam<const char*> {
 protected:
  AllocationTest()
      : host_(*core::parse_demux_spec(GetParam()),
              [this](std::vector<std::uint8_t> wire, const core::Pcb&) {
                ++segments_;
                last_ = std::move(wire);  // freed by the next segment
              }) {
    SocketTable& t = host_.table();
    t.listen(kServer, kPort);
    t.enable_syn_cache();
    t.set_clock([this] { return now_; });
  }

  template <typename Op>
  Cost cost(Op op) {
    const std::uint64_t a0 = g_allocations;
    const std::uint64_t s0 = segments_;
    op();
    return Cost{g_allocations - a0, segments_ - s0};
  }

  /// Host::input of a frame built beforehand (building it allocates).
  Cost input(const std::vector<std::uint8_t>& wire, Delivery want) {
    Delivery got = Delivery::kParseError;
    const Cost c = cost([&] { got = host_.input(wire, now_).status; });
    EXPECT_EQ(got, want);
    return c;
  }

  struct Conn {
    std::uint16_t port = 0;
    std::uint32_t c_nxt = 0;
    core::Pcb* pcb = nullptr;
  };

  void open_all() {
    for (int i = 0; i < kConnections; ++i) {
      Conn c;
      c.port = static_cast<std::uint16_t>(kFirstPort + i);
      c.c_nxt = 1000;
      ASSERT_EQ(host_.input(frame(c.port, kSyn, c.c_nxt, 0), now_).status,
                Delivery::kSynCached);
      const auto synack = net::Packet::parse(last_);
      ASSERT_TRUE(synack.has_value());
      c.c_nxt += 1;
      const auto r = host_.input(
          frame(c.port, kAck, c.c_nxt, synack->tcp.seq + 1), now_);
      ASSERT_EQ(r.status, Delivery::kNewConnection);
      ASSERT_EQ(host_.table().accept(), r.pcb);
      c.pcb = r.pcb;
      conns_.push_back(c);
    }
  }

  /// One TPC/A exchange: query in, ACK out; response out; its ACK in.
  /// Checks every step's cost when `check` is set.
  void exchange(Conn& c, bool check) {
    const auto query = frame(c.port, kPshAck, c.c_nxt, c.pcb->snd_nxt, 120);
    const Cost q = input(query, Delivery::kDelivered);
    c.c_nxt += 120;
    bool sent = false;
    const Cost r = cost([&] { sent = host_.table().send_data(*c.pcb, 320); });
    EXPECT_TRUE(sent);
    const auto ack = frame(c.port, kAck, c.c_nxt, c.pcb->snd_nxt);
    const Cost a = input(ack, Delivery::kDelivered);
    if (!check) return;
    EXPECT_EQ(q.segments, 1u);
    EXPECT_EQ(q.allocations, q.segments) << "data frame";
    EXPECT_EQ(r.segments, 1u);
    EXPECT_EQ(r.allocations, r.segments) << "send_data";
    EXPECT_EQ(a.segments, 0u);
    EXPECT_EQ(a.allocations, 0u) << "pure ACK";
  }

  double now_ = 0.0;
  std::uint64_t segments_ = 0;
  std::vector<std::uint8_t> last_;
  std::vector<Conn> conns_;
  Host host_;
};

TEST_P(AllocationTest, SteadyStateReceivePathAllocatesOnlyEmittedSegments) {
  open_all();
  // Warm-up: every per-connection structure reaches its working size.
  for (int round = 0; round < 2; ++round) {
    for (Conn& c : conns_) exchange(c, false);
  }
  for (Conn& c : conns_) exchange(c, true);

  // Unknown tuple: one RST out, nothing else.
  const auto stale = frame(kFirstPort - 1, kAck, 7, 9);
  const Cost rst = input(stale, Delivery::kReset);
  EXPECT_EQ(rst.segments, 1u);
  EXPECT_EQ(rst.allocations, rst.segments) << "RST";

  // Corrupt frame: dropped without a trace on the heap.
  auto bad = frame(kFirstPort, kAck, 7, 9);
  bad[20 + 16] ^= 0xff;
  const Cost drop = input(bad, Delivery::kParseError);
  EXPECT_EQ(drop.allocations, 0u) << "bad checksum";

  // A lost response: the retransmit timer resends it from the record.
  Conn& lossy = conns_.front();
  ASSERT_TRUE(host_.table().send_data(*lossy.pcb, 320));
  now_ += 1.5;
  std::size_t resent = 0;
  const Cost rto = cost([&] { resent = host_.table().poll_retransmits(); });
  EXPECT_EQ(resent, 1u);
  EXPECT_EQ(rto.allocations, rto.segments) << "poll_retransmits";
  const auto caught_up = frame(lossy.port, kAck, lossy.c_nxt,
                               lossy.pcb->snd_nxt);
  EXPECT_EQ(input(caught_up, Delivery::kDelivered).allocations, 0u);

  // Passive close: FIN in (ACK out), close (FIN out), final ACK in (the
  // PCB is CLOSED and takes a close-timer record), then the reaper.
  for (Conn& c : conns_) {
    const auto fin = frame(c.port, kFinAck, c.c_nxt, c.pcb->snd_nxt);
    const Cost f = input(fin, Delivery::kDelivered);
    c.c_nxt += 1;
    bool closed = false;
    const Cost cl = cost([&] { closed = host_.table().close(*c.pcb); });
    EXPECT_TRUE(closed);
    const auto last = frame(c.port, kAck, c.c_nxt, c.pcb->snd_nxt);
    const Cost l = input(last, Delivery::kDelivered);
    EXPECT_EQ(c.pcb->state, core::TcpState::kClosed);
    std::size_t reaped = 0;
    const Cost reap = cost([&] { reaped = host_.table().reap_closed(); });
    EXPECT_EQ(reaped, 1u);
    c.pcb = nullptr;
    EXPECT_EQ(f.segments, 1u);
    EXPECT_EQ(f.allocations, f.segments) << "FIN";
    EXPECT_EQ(cl.segments, 1u);
    EXPECT_EQ(cl.allocations, cl.segments) << "close";
    EXPECT_EQ(l.allocations, 0u) << "final ACK";
    EXPECT_EQ(reap.allocations, 0u) << "reap_closed";
  }
  EXPECT_EQ(host_.table().connection_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Specs, AllocationTest,
                         ::testing::Values("flat16:incremental",
                                           "sequent:19:crc32"),
                         spec_test_name);

// Connection churn: a SYN-cache completion inserts a PCB, and a passive
// close plus the reaper erase it. Once the table's PCB slab holds a freed
// cell, neither step allocates; the only heap traffic left is the wire
// buffer per emitted segment.
class ChurnAllocationTest : public AllocationTest {};

TEST_P(ChurnAllocationTest, CompletionAndReapAllocateNothingOnceWarm) {
  // One tuple, reused once reaped (as ephemeral ports are under churn), so
  // a sharded table sends every round to the same shard's slab.
  for (int round = 0; round < 4; ++round) {
    Conn c;
    c.port = kFirstPort;
    c.c_nxt = 1000 + 5000 * static_cast<std::uint32_t>(round);
    ASSERT_EQ(host_.input(frame(c.port, kSyn, c.c_nxt, 0), now_).status,
              Delivery::kSynCached);
    const auto synack = net::Packet::parse(last_);
    ASSERT_TRUE(synack.has_value());
    c.c_nxt += 1;
    const auto ack = frame(c.port, kAck, c.c_nxt, synack->tcp.seq + 1);
    Delivery got = Delivery::kParseError;
    const Cost open = cost([&] {
      const auto r = host_.input(ack, now_);
      got = r.status;
      c.pcb = r.pcb;
    });
    ASSERT_EQ(got, Delivery::kNewConnection);
    ASSERT_EQ(host_.table().accept(), c.pcb);

    const auto fin = frame(c.port, kFinAck, c.c_nxt, c.pcb->snd_nxt);
    const Cost f = input(fin, Delivery::kDelivered);
    c.c_nxt += 1;
    const Cost cl = cost([&] { EXPECT_TRUE(host_.table().close(*c.pcb)); });
    const auto last = frame(c.port, kAck, c.c_nxt, c.pcb->snd_nxt);
    const Cost l = input(last, Delivery::kDelivered);
    std::size_t reaped = 0;
    const Cost reap = cost([&] { reaped = host_.table().reap_closed(); });
    EXPECT_EQ(reaped, 1u);
    // Round 0 maps the slab's first chunk and sizes the per-connection
    // containers; every later completion reuses the cell round 0 freed.
    if (round == 0) continue;
    EXPECT_EQ(open.segments, 0u);
    EXPECT_EQ(open.allocations, 0u) << "SYN-cache completion (insert)";
    EXPECT_EQ(f.allocations, f.segments) << "FIN";
    EXPECT_EQ(cl.allocations, cl.segments) << "close";
    EXPECT_EQ(l.allocations, 0u) << "final ACK";
    EXPECT_EQ(reap.allocations, 0u) << "reap_closed (erase)";
  }
  EXPECT_EQ(host_.table().connection_count(), 0u);
}

// Only the flat tables own their PCBs through a slab; the other backends
// still allocate one PCB per insert.
INSTANTIATE_TEST_SUITE_P(SlabSpecs, ChurnAllocationTest,
                         ::testing::Values("flat16:incremental", "flat",
                                           "sharded:2:flat16"),
                         spec_test_name);

TEST(ReassemblerAllocation, WholeDatagramIsNotCopied) {
  net::Reassembler r;
  const auto wire = frame(kFirstPort, kPshAck, 1, 2, 300);
  (void)r.offer(wire, 0.0);
  const std::uint64_t before = g_allocations;
  const auto view = r.offer(wire, 0.0);
  const auto packet = view ? net::Packet::parse(*view) : std::nullopt;
  const std::uint64_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u);
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(packet->payload.size(), 300u);
}

}  // namespace
}  // namespace tcpdemux::tcp
