#include "runner.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "core/demux_registry.h"
#include "net/byte_order.h"
#include "net/fragment.h"
#include "net/packet.h"
#include "tcp/host.h"

namespace rxbench {
namespace {

namespace core = ::tcpdemux::core;
namespace tcp = ::tcpdemux::tcp;
using Clock = std::chrono::steady_clock;
using Delivery = tcp::SocketTable::Delivery;
using net::TcpFlag;

// Host configuration: the same in every workload.
constexpr const char* kDemuxSpec = "flat16:incremental";
// Up to a burst of embryos is outstanding at once; with 256 buckets of 8,
// overflowing one (whose eviction would turn the handshake ACK into an
// RST) is vanishingly unlikely. The default 64 buckets is not.
constexpr std::uint32_t kSynCacheBuckets = 256;
// Driver and application.
constexpr std::size_t kBurst = 32;  // frames handed over per poll
constexpr std::uint32_t kQueryBytes = 120;
constexpr std::uint32_t kResponseBytes = 320;
constexpr double kTickSeconds = 0.1;  // timer cadence in virtual time
constexpr double kMsl = 1.0;
// Stale frames come from a port below every churn host's ephemeral range.
constexpr std::uint16_t kStalePort = 39999;
// Frames delivered, checked and not timed before measuring: lets caches
// fill and the last table migration of set-up drain.
constexpr std::size_t kWarmupFrames = std::size_t{1} << 19;
// Frames delivered untimed after each set-up spread over the run, which
// evicts the measured Host's working set.
constexpr std::size_t kRewarmFrames = kWarmupFrames / 8;
// The traced run alternates untraced and traced blocks of bursts; counts
// are taken over a fixed number of traced bursts so they repeat exactly.
constexpr std::uint64_t kTraceBlockBursts = 64;
constexpr std::uint64_t kWindowBursts = 4096;

constexpr std::uint8_t flag(TcpFlag f) { return static_cast<std::uint8_t>(f); }

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// The header fields of one emitted segment that the oracle checks.
struct Seg {
  std::uint8_t flags = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint32_t payload = 0;
  std::uint32_t total = 0;
};

Seg decode(std::span<const std::uint8_t> w) {
  Seg s;
  s.total = static_cast<std::uint32_t>(w.size());
  if (w.size() < 20) return s;
  const std::size_t ihl = static_cast<std::size_t>(w[0] & 0xf) * 4;
  if (w.size() < ihl + 20) return s;
  const std::uint8_t* t = w.data() + ihl;
  s.flags = t[13];
  s.seq = net::load_be32(t + 4);
  s.ack = net::load_be32(t + 8);
  const std::size_t doff = static_cast<std::size_t>(t[12] >> 4) * 4;
  if (w.size() >= ihl + doff) {
    s.payload = static_cast<std::uint32_t>(w.size() - ihl - doff);
  }
  return s;
}

bool same(const Seg& got, const Seg& want, bool check_seq) {
  return got.flags == want.flags && (!check_seq || got.seq == want.seq) &&
         ((want.flags & flag(TcpFlag::kAck)) == 0 || got.ack == want.ack) &&
         got.payload == want.payload && got.total == 40 + want.payload;
}

/// What the generator expects of one frame.
struct Expect {
  Delivery status = Delivery::kParseError;
  bool emits = false;  ///< one segment during delivery
  bool check_seq = true;  ///< false for the SYN-ACK: its ISN is learned
  Seg seg;
  bool app_emits = false;  ///< one segment from the application
  Seg app;
};

/// One frame of the current burst: its bytes, expectation and outcome.
struct Slot {
  Step step;
  double time = 0.0;
  std::uint32_t off = 0;
  std::uint32_t len = 0;
  Expect want;
  Delivery status = Delivery::kParseError;
  core::Pcb* pcb = nullptr;
  std::uint32_t emitted = 0;
  Seg got;
  std::uint32_t app_emitted = 0;
  Seg app_got;
  bool app_ok = true;
};

/// The client's view of one connection.
struct ConnState {
  std::uint32_t c_nxt = 0;      ///< next client sequence number
  std::uint32_t s_nxt = 0;      ///< next server sequence number expected
  std::uint32_t dep_burst = 0;  ///< burst of the frame later ones wait on
  std::uint16_t deferred = 0;   ///< frames waiting in the deferral queue
  bool final_placed = false;   ///< its final ACK is in a burst
};

/// Set-up plays SYN + handshake ACK for each initial connection; the
/// measured stream plays the workload's steps, repeating them when the
/// workload has a cycle.
class Source {
 public:
  /// Set-up source.
  explicit Source(const Traffic& t) : t_(t) {}
  /// Measured-stream source.
  Source(const Traffic& t, StepReader& reader) : t_(t), reader_(&reader) {}

  bool next(Step& s, double& time) {
    if (reader_ == nullptr) {
      if (pos_ >= 2 * t_.initial.size()) return false;
      s = Step::make(0, t_.initial[pos_ / 2],
                     pos_ % 2 == 0 ? FrameKind::kSyn
                                   : FrameKind::kHandshakeAck);
      time = 0.0;
      ++pos_;
      return true;
    }
    if (!reader_->next(s)) {
      if (t_.cycle_us == 0) return false;
      reader_->rewind();
      ++cycle_;
      if (!reader_->next(s)) return false;
    }
    time = static_cast<double>(cycle_ * t_.cycle_us + s.time_us) * 1e-6;
    return true;
  }

 private:
  const Traffic& t_;
  StepReader* reader_ = nullptr;
  std::size_t pos_ = 0;
  std::uint64_t cycle_ = 0;
};

/// Per-layer accumulators of the traced run. Times cover every traced
/// frame; counts cover the fixed window only.
struct TraceAcc {
  std::uint64_t offer_ns = 0, offers = 0;
  std::uint64_t parse_ns = 0, parses = 0;
  std::uint64_t lookup_ns = 0, lookups_timed = 0;
  std::int64_t self_ns = 0;
  std::uint64_t selfs = 0;
  std::int64_t insert_ns = 0;
  std::uint64_t inserts = 0;
  std::uint64_t erase_ns = 0, erases = 0;
  std::uint64_t send_ns = 0, sends = 0;
  std::uint64_t timer_ns = 0, ticks = 0;
  std::uint64_t traced_ns = 0, traced_frames = 0;
  std::uint64_t plain_ns = 0, plain_frames = 0;
  // Window counts.
  std::uint64_t frames = 0;
  std::uint64_t net_allocs = 0;
  std::uint64_t tcp_allocs = 0;
  std::uint64_t drops = 0;
  std::uint64_t delivered = 0;
  std::uint64_t emitted = 0;
  std::uint64_t rsts = 0;
  std::uint64_t lookups = 0, found = 0, examined = 0;
};

bool pure_ack(const net::Packet& p) {
  return p.payload.empty() && p.tcp.has(TcpFlag::kAck) &&
         !p.tcp.has(TcpFlag::kSyn) && !p.tcp.has(TcpFlag::kFin);
}

class Bench {
 public:
  explicit Bench(const Traffic& t) : t_(t), conns_(t.keys.size()) {
    std::string error;
    const auto config = core::parse_demux_spec(kDemuxSpec, &error);
    if (!config) throw std::runtime_error("demux spec: " + error);
    config_ = *config;
    slots_.reserve(kBurst);
    kept_.reserve(4 * kBurst);
  }

  /// Builds a fresh Host and establishes the initial population. Returns
  /// the seconds spent in the Host's own calls.
  double setup() {
    host_.reset();
    deferred_.clear();
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      conns_[c] = ConnState{};
      conns_[c].c_nxt = t_.client_iss[c];
    }
    now_ = 0.0;
    next_tick_ = kTickSeconds;

    const auto t0 = Clock::now();
    host_ = std::make_unique<tcp::Host>(
        config_, [cap = &cap_](std::vector<std::uint8_t> wire,
                               const core::Pcb&) {
          ++cap->count;
          cap->last = decode(wire);
          if (cap->keep != nullptr) cap->keep->push_back(std::move(wire));
        });
    tcp::SocketTable& table = host_->table();
    const net::FlowKey& server = t_.keys.front();
    table.listen(server.local_addr, server.local_port);
    tcp::SynCache::Options syn;
    syn.buckets = kSynCacheBuckets;
    table.enable_syn_cache(syn);
    table.set_clock([this] { return now_; });
    std::uint64_t ns = ns_between(t0, Clock::now());

    Source src(t_);
    while (fill_burst(src)) {
      ns += deliver_plain();
      verify();
    }
    return static_cast<double>(ns) * 1e-9;
  }

  /// Builds the next burst from the deferral queue, then `src`.
  bool fill_burst(Source& src) {
    slots_.clear();
    arena_.clear();
    ++burst_no_;
    blocked_.clear();
    for (auto it = deferred_.begin();
         it != deferred_.end() && slots_.size() < kBurst;) {
      const std::uint32_t conn = it->first.conn();
      if (std::find(blocked_.begin(), blocked_.end(), conn) ==
              blocked_.end() &&
          eligible(it->first)) {
        place(it->first, it->second);
        --conns_[conn].deferred;
        it = deferred_.erase(it);
      } else {
        blocked_.push_back(conn);
        ++it;
      }
    }
    Step s;
    double time = 0.0;
    while (slots_.size() < kBurst && src.next(s, time)) {
      const bool stale = s.kind() == FrameKind::kStaleAck ||
                         s.kind() == FrameKind::kCorrupt;
      if (!stale &&
          (conns_[s.conn()].deferred > 0 || !eligible(s))) {
        deferred_.emplace_back(s, time);
        ++conns_[s.conn()].deferred;
        continue;
      }
      place(s, time);
    }
    return !slots_.empty();
  }

  /// Host::input for every frame, then the application, then timers.
  /// Returns the elapsed nanoseconds.
  std::uint64_t deliver_plain() {
    const auto t0 = Clock::now();
    for (Slot& s : slots_) {
      now_ = std::max(now_, s.time);
      cap_.count = 0;
      const auto r = host_->input(
          std::span<const std::uint8_t>(arena_.data() + s.off, s.len), now_);
      s.status = r.status;
      s.pcb = r.pcb;
      s.emitted = cap_.count;
      s.got = cap_.last;
    }
    for (Slot& s : slots_) app(s, nullptr, false);
    tick(nullptr);
    return ns_between(t0, Clock::now());
  }

  /// The same work as deliver_plain, split into the public calls
  /// Host::input is made of, each timed: Reassembler::offer,
  /// Packet::parse, then SocketTable::deliver. Two Demuxer::lookup calls
  /// precede deliver: the first times the lookup as the path meets it, the
  /// second (now cache-warm, as deliver's own lookup will be) is subtracted
  /// from deliver to give deliver's self time.
  std::uint64_t deliver_traced(TraceAcc& acc, bool in_window) {
    tcp::SocketTable& table = host_->table();
    core::Demuxer& demux = table.demuxer();
    const auto start = Clock::now();
    for (Slot& s : slots_) {
      now_ = std::max(now_, s.time);
      cap_.count = 0;
      s.status = Delivery::kParseError;
      const std::uint64_t a0 = alloc_count();
      const auto c0 = Clock::now();
      const auto datagram = reassembler_.offer(
          std::span<const std::uint8_t>(arena_.data() + s.off, s.len), now_);
      const auto c1 = Clock::now();
      acc.offer_ns += ns_between(c0, c1);
      ++acc.offers;
      if (in_window) ++acc.frames;
      if (!datagram) {
        if (in_window) {
          acc.net_allocs += alloc_count() - a0;
          ++acc.drops;
        }
        continue;
      }
      const auto packet = net::Packet::parse(*datagram);
      const auto c2 = Clock::now();
      acc.parse_ns += ns_between(c1, c2);
      ++acc.parses;
      if (in_window) acc.net_allocs += alloc_count() - a0;
      if (!packet) {
        if (in_window) ++acc.drops;
        continue;
      }
      const net::FlowKey key = packet->receiver_flow_key();
      const auto kind = pure_ack(*packet) ? core::SegmentKind::kAck
                                          : core::SegmentKind::kData;
      const auto c3 = Clock::now();
      (void)demux.lookup(key, kind);
      const auto c4 = Clock::now();
      (void)demux.lookup(key, kind);
      const auto c5 = Clock::now();
      const core::DemuxStats before = demux.stats();
      const std::uint64_t a1 = alloc_count();
      const auto c6 = Clock::now();
      const auto r = table.deliver(*packet);
      const auto c7 = Clock::now();
      const std::uint64_t a2 = alloc_count();
      acc.lookup_ns += ns_between(c3, c4);
      ++acc.lookups_timed;
      const auto self = static_cast<std::int64_t>(ns_between(c6, c7)) -
                        static_cast<std::int64_t>(ns_between(c4, c5));
      if (r.status == Delivery::kNewConnection) {
        acc.insert_ns += self;
        ++acc.inserts;
      } else {
        acc.self_ns += self;
        ++acc.selfs;
      }
      if (in_window) {
        const core::DemuxStats& after = demux.stats();
        acc.tcp_allocs += a2 - a1;
        acc.lookups += after.lookups - before.lookups;
        acc.found += after.found - before.found;
        acc.examined += after.pcbs_examined - before.pcbs_examined;
        ++acc.delivered;
        if (r.status == Delivery::kReset) ++acc.rsts;
        acc.emitted += cap_.count;
      }
      s.status = r.status;
      s.pcb = r.pcb;
      s.emitted = cap_.count;
      s.got = cap_.last;
    }
    for (Slot& s : slots_) {
      app(s, &acc, in_window);
      if (in_window) acc.emitted += s.app_emitted;
    }
    tick(&acc);
    return ns_between(start, Clock::now());
  }

  /// Checks every frame of the burst against the generator's expectation
  /// and learns server ISNs from SYN-ACKs. Segments kept by a traced burst
  /// are re-parsed, which verifies their checksums.
  void verify() {
    for (Slot& s : slots_) {
      ++attempted_;
      const Expect& w = s.want;
      bool ok = s.status == w.status && s.app_ok &&
                s.emitted == (w.emits ? 1u : 0u) &&
                s.app_emitted == (w.app_emits ? 1u : 0u);
      if (ok && w.emits) ok = same(s.got, w.seg, w.check_seq);
      if (ok && w.app_emits) ok = same(s.app_got, w.app, true);
      if (s.step.kind() == FrameKind::kSyn && s.emitted == 1) {
        conns_[s.step.conn()].s_nxt = s.got.seq + 1;
      }
      if (!ok) {
        if (++failed_ <= 10) {
          std::fprintf(stderr,
                       "rxbench: frame mismatch: kind=%u conn=%u status=%u "
                       "(want %u) emitted=%u app_emitted=%u app_ok=%d "
                       "flags=0x%02x seq=%u ack=%u payload=%u\n",
                       static_cast<unsigned>(s.step.kind()), s.step.conn(),
                       static_cast<unsigned>(s.status),
                       static_cast<unsigned>(w.status), s.emitted,
                       s.app_emitted, s.app_ok ? 1 : 0, s.got.flags,
                       s.got.seq, s.got.ack, s.got.payload);
        }
      }
    }
    for (const auto& wire : kept_) {
      const auto packet = net::Packet::parse(wire);
      const Seg seg = decode(wire);
      if (!packet || packet->tcp.seq != seg.seq || packet->tcp.ack != seg.ack ||
          packet->payload.size() != seg.payload) {
        ++bad_segments_;
      }
    }
    kept_.clear();
  }

  void keep_segments(bool on) { cap_.keep = on ? &kept_ : nullptr; }
  [[nodiscard]] std::size_t burst_frames() const { return slots_.size(); }
  [[nodiscard]] tcp::Host& host() { return *host_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t unexpected() const {
    return timer_segments_ + bad_segments_;
  }
  [[nodiscard]] std::size_t stranded() const { return deferred_.size(); }

 private:
  struct Capture {
    std::uint32_t count = 0;
    Seg last;
    std::vector<std::vector<std::uint8_t>>* keep = nullptr;
  };

  /// A frame that needs something the server sends (an ISN, a response,
  /// a FIN, a freed tuple) waits until the burst carrying the frame that
  /// provokes it has been delivered and answered.
  [[nodiscard]] bool eligible(const Step& s) const {
    const ConnState& c = conns_[s.conn()];
    switch (s.kind()) {
      case FrameKind::kHandshakeAck:
      case FrameKind::kResponseAck:
      case FrameKind::kFinalAck:
        return c.dep_burst < burst_no_;
      case FrameKind::kSyn: {
        const std::uint32_t prev = t_.prev_same_tuple[s.conn()];
        if (prev == kNoConn) return true;
        const ConnState& p = conns_[prev];
        return p.final_placed && p.dep_burst < burst_no_;
      }
      default:
        return true;
    }
  }

  /// Materializes one frame from the client's connection state.
  void place(const Step& step, double time) {
    Slot& slot = slots_.emplace_back();
    slot.step = step;
    slot.time = time;
    Expect& w = slot.want;
    ConnState& c = conns_[step.conn()];
    const net::FlowKey& key = t_.keys[step.conn()];
    const std::uint8_t ack = flag(TcpFlag::kAck);
    net::PacketBuilder b;
    b.from({key.foreign_addr, key.foreign_port})
        .to({key.local_addr, key.local_port});
    switch (step.kind()) {
      case FrameKind::kSyn:
        b.seq(c.c_nxt).flags(TcpFlag::kSyn);
        w.status = Delivery::kSynCached;
        w.emits = true;
        w.check_seq = false;
        w.seg = Seg{TcpFlag::kSyn | TcpFlag::kAck, 0, c.c_nxt + 1, 0, 0};
        c.c_nxt += 1;
        c.dep_burst = burst_no_;
        break;
      case FrameKind::kHandshakeAck:
        b.seq(c.c_nxt).ack_seq(c.s_nxt);
        w.status = Delivery::kNewConnection;
        break;
      case FrameKind::kQuery:
        b.seq(c.c_nxt).ack_seq(c.s_nxt).flags(TcpFlag::kPsh).payload_size(
            kQueryBytes);
        w.status = Delivery::kDelivered;
        w.emits = true;
        w.seg = Seg{ack, c.s_nxt, c.c_nxt + kQueryBytes, 0, 0};
        w.app_emits = true;
        w.app = Seg{TcpFlag::kAck | TcpFlag::kPsh, c.s_nxt,
                    c.c_nxt + kQueryBytes, kResponseBytes, 0};
        c.c_nxt += kQueryBytes;
        c.s_nxt += kResponseBytes;
        c.dep_burst = burst_no_;
        break;
      case FrameKind::kResponseAck:
        b.seq(c.c_nxt).ack_seq(c.s_nxt);
        w.status = Delivery::kDelivered;
        break;
      case FrameKind::kFin:
        b.seq(c.c_nxt).ack_seq(c.s_nxt).flags(TcpFlag::kFin);
        w.status = Delivery::kDelivered;
        w.emits = true;
        w.seg = Seg{ack, c.s_nxt, c.c_nxt + 1, 0, 0};
        w.app_emits = true;
        w.app = Seg{TcpFlag::kFin | TcpFlag::kAck, c.s_nxt, c.c_nxt + 1, 0, 0};
        c.c_nxt += 1;
        c.s_nxt += 1;
        c.dep_burst = burst_no_;
        break;
      case FrameKind::kFinalAck:
        b.seq(c.c_nxt).ack_seq(c.s_nxt);
        w.status = Delivery::kDelivered;
        c.dep_burst = burst_no_;
        c.final_placed = true;
        break;
      case FrameKind::kStaleAck:
      case FrameKind::kCorrupt: {
        const std::uint32_t seq = step.time_us * 2654435761u ^ step.packed;
        const std::uint32_t ackno = seq ^ 0x5a5a5a5au;
        b.from({key.foreign_addr, kStalePort}).seq(seq).ack_seq(ackno);
        if (step.kind() == FrameKind::kStaleAck) {
          w.status = Delivery::kReset;
          w.emits = true;
          w.seg = Seg{flag(TcpFlag::kRst), ackno, 0, 0, 0};
        }
        break;
      }
    }
    const std::vector<std::uint8_t> wire = b.build();
    slot.off = static_cast<std::uint32_t>(arena_.size());
    slot.len = static_cast<std::uint32_t>(wire.size());
    arena_.insert(arena_.end(), wire.begin(), wire.end());
    if (step.kind() == FrameKind::kCorrupt) {
      arena_[slot.off + 20 + 16] ^= 0xff;  // TCP checksum
    }
  }

  /// The server application: accepts, answers each query, closes after
  /// the client's FIN, frees the PCB once the connection is closed.
  void app(Slot& s, TraceAcc* acc, bool in_window) {
    tcp::SocketTable& table = host_->table();
    s.app_emitted = 0;
    s.app_ok = true;
    switch (s.step.kind()) {
      case FrameKind::kHandshakeAck:
        if (s.status == Delivery::kNewConnection) {
          s.app_ok = table.accept() == s.pcb;
        }
        break;
      case FrameKind::kQuery:
        if (s.status == Delivery::kDelivered) {
          cap_.count = 0;
          const std::uint64_t a0 = alloc_count();
          const auto c0 = Clock::now();
          s.app_ok = table.send_data(*s.pcb, kResponseBytes);
          if (acc != nullptr) {
            acc->send_ns += ns_between(c0, Clock::now());
            ++acc->sends;
            if (in_window) acc->tcp_allocs += alloc_count() - a0;
          }
          s.app_emitted = cap_.count;
          s.app_got = cap_.last;
        }
        break;
      case FrameKind::kFin:
        if (s.status == Delivery::kDelivered) {
          s.app_ok = s.pcb->state == core::TcpState::kCloseWait;
          cap_.count = 0;
          if (s.app_ok) s.app_ok = table.close(*s.pcb);
          s.app_emitted = cap_.count;
          s.app_got = cap_.last;
        }
        break;
      case FrameKind::kFinalAck:
        if (s.status == Delivery::kDelivered) {
          s.app_ok = s.pcb->state == core::TcpState::kClosed;
          if (s.app_ok) {
            const net::FlowKey key = s.pcb->key;
            const auto c0 = Clock::now();
            s.app_ok = table.erase(key);
            if (acc != nullptr) {
              acc->erase_ns += ns_between(c0, Clock::now());
              ++acc->erases;
            }
          }
        }
        break;
      default:
        break;
    }
  }

  /// Runs the retransmit, reap and SYN-cache timers once per tick of
  /// virtual time. None of them should emit anything here.
  void tick(TraceAcc* acc) {
    if (now_ < next_tick_) return;
    next_tick_ = (std::floor(now_ / kTickSeconds) + 1.0) * kTickSeconds;
    tcp::SocketTable& table = host_->table();
    cap_.count = 0;
    const auto c0 = Clock::now();
    table.poll_retransmits();
    table.reap_closed(kMsl);
    table.expire_embryonic(now_);
    if (acc != nullptr) {
      acc->timer_ns += ns_between(c0, Clock::now());
      ++acc->ticks;
    }
    timer_segments_ += cap_.count;
  }

  const Traffic& t_;
  core::DemuxConfig config_;
  std::vector<ConnState> conns_;
  std::deque<std::pair<Step, double>> deferred_;
  std::vector<std::uint32_t> blocked_;
  std::uint32_t burst_no_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint8_t> arena_;
  Capture cap_;
  std::vector<std::vector<std::uint8_t>> kept_;
  double now_ = 0.0;
  double next_tick_ = kTickSeconds;
  net::Reassembler reassembler_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t timer_segments_ = 0;
  std::uint64_t bad_segments_ = 0;
  // Declared last: its transmit callback and clock point into the members
  // above, so it is destroyed first.
  std::unique_ptr<tcp::Host> host_;
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Burst times of the timed run, in log-spaced buckets (64 per doubling),
/// so memory does not grow with the run's speed.
class BurstHistogram {
 public:
  void add(std::uint64_t ns) {
    const auto i = static_cast<std::size_t>(
        std::log2(static_cast<double>(std::max<std::uint64_t>(ns, 1))) *
        kPerDoubling);
    ++counts_[std::min(i, counts_.size() - 1)];
    ++n_;
  }
  /// Nearest-rank percentile, interpolated within its bucket.
  [[nodiscard]] double percentile(double q) const {
    if (n_ == 0) return 0.0;
    const double rank =
        std::max(1.0, std::ceil(q * static_cast<double>(n_)));
    double below = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const double c = counts_[i];
      if (below + c >= rank) {
        const double frac = (rank - below - 0.5) / c;
        return std::exp2((static_cast<double>(i) + frac) / kPerDoubling);
      }
      below += c;
    }
    return 0.0;
  }

 private:
  static constexpr double kPerDoubling = 64.0;
  std::array<std::uint32_t, 40 * 64> counts_{};
  std::uint64_t n_ = 0;
};

/// The detail line reports frames/s per slice of the timed run, which
/// shows contention from other tenants as it comes and goes.
struct Slice {
  std::uint64_t ns = 0;
  std::uint64_t frames = 0;
};
constexpr std::size_t kSlices = 20;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// Median cost of one steady_clock read, as seen by a span around nothing.
double clock_read_ns() {
  std::vector<std::uint64_t> d(10001);
  for (auto& x : d) {
    const auto a = Clock::now();
    x = ns_between(a, Clock::now());
  }
  const auto mid = d.begin() + static_cast<std::ptrdiff_t>(d.size() / 2);
  std::nth_element(d.begin(), mid, d.end());
  return static_cast<double>(*mid);
}

int set_up_repetitions(std::size_t population, bool trace) {
  if (trace) return 1;
  if (population >= 1'000'000) return 3;
  if (population >= 100'000) return 11;
  return 31;
}

// The host's speed drifts in phases of seconds, so set-ups run back to
// back would all land in one phase. Below this population they run on a
// second Bench between timed bursts, spread evenly over the run, and the
// measured Host is warmed up again after each. At 2M a set-up spans
// seconds and a second Host would double the footprint, so they run back
// to back before the run.
constexpr std::size_t kSpreadSetUpBelow = 1'000'000;

}  // namespace

int run_benchmark(const Traffic& traffic, const RunOptions& options) {
  if (traffic.keys.empty() || traffic.initial.empty()) {
    std::fprintf(stderr, "rxbench: empty traffic\n");
    return 2;
  }
  Bench bench(traffic);

  std::vector<double> setup_s;
  const int reps = set_up_repetitions(traffic.initial.size(), options.trace);
  std::optional<Bench> probe;
  if (!options.trace && traffic.initial.size() < kSpreadSetUpBelow) {
    probe.emplace(traffic);
  }
  setup_s.push_back(bench.setup());
  if (!probe) {
    for (int r = 1; r < reps; ++r) setup_s.push_back(bench.setup());
  }
  std::uint64_t setup_frames = bench.attempted();

  StepReader reader(traffic);
  Source stream(traffic, reader);
  std::uint64_t warmup_frames = 0;
  bool exhausted = false;
  // Delivers and checks `frames` more frames untimed.
  const auto warm_up = [&](std::uint64_t frames) {
    const std::uint64_t until = warmup_frames + frames;
    while (!exhausted && warmup_frames < until) {
      if (!bench.fill_burst(stream)) {
        exhausted = true;
        break;
      }
      (void)bench.deliver_plain();
      bench.verify();
      warmup_frames += bench.burst_frames();
    }
  };
  warm_up(kWarmupFrames);

  const auto target_ns = static_cast<std::uint64_t>(options.seconds * 1e9);
  std::vector<Slice> slices(kSlices);
  BurstHistogram burst_hist;
  const double clock_ns = clock_read_ns();
  std::uint64_t timed_ns = 0;
  std::uint64_t timed_frames = 0;
  std::uint64_t bursts = 0;
  TraceAcc acc;
  std::uint64_t traced_bursts = 0;
  core::Demuxer& demux = bench.host().table().demuxer();
  const tcp::SynCache* syn = bench.host().table().syn_cache();
  tcp::SynCache::Stats syn_start{};
  tcp::SynCache::Stats syn_end{};
  std::uint64_t resizes = 0;
  double bytes_per_pcb = 0.0;
  // Resizes count from the Host's construction, so set-up growth shows.
  const auto close_window = [&] {
    syn_end = syn->stats();
    resizes = demux.telemetry().counters().resizes_started;
    bytes_per_pcb = ratio(static_cast<double>(demux.memory_bytes()),
                          static_cast<double>(demux.size()));
  };

  while (!exhausted && (timed_ns < target_ns ||
                        (options.trace && traced_bursts < kWindowBursts))) {
    if (!bench.fill_burst(stream)) {
      exhausted = true;
      break;
    }
    const std::size_t n = bench.burst_frames();
    std::uint64_t ns = 0;
    if (options.trace && (bursts / kTraceBlockBursts) % 2 == 1) {
      if (traced_bursts == 0) syn_start = syn->stats();
      bench.keep_segments(true);
      ns = bench.deliver_traced(acc, traced_bursts < kWindowBursts);
      bench.keep_segments(false);
      acc.traced_ns += ns;
      acc.traced_frames += n;
      if (++traced_bursts == kWindowBursts) close_window();
    } else {
      ns = bench.deliver_plain();
      acc.plain_ns += ns;
      acc.plain_frames += n;
    }
    bench.verify();
    Slice& slice = slices[std::min<std::uint64_t>(
        kSlices - 1,
        timed_ns * kSlices / std::max<std::uint64_t>(target_ns, 1))];
    slice.ns += ns;
    slice.frames += n;
    burst_hist.add(ns);
    timed_ns += ns;
    timed_frames += n;
    ++bursts;
    if (probe && setup_s.size() < static_cast<std::size_t>(reps) &&
        timed_ns * static_cast<std::uint64_t>(reps) >=
            setup_s.size() * target_ns) {
      setup_s.push_back(probe->setup());
      warm_up(kRewarmFrames);
    }
  }
  if (options.trace && traced_bursts < kWindowBursts) close_window();

  std::uint64_t attempted = bench.attempted();
  std::uint64_t failed = bench.failed();
  std::uint64_t unexpected = bench.unexpected();
  if (probe) {
    setup_frames += probe->attempted();
    attempted += probe->attempted();
    failed += probe->failed();
    unexpected += probe->unexpected();
  }
  const bool measured = timed_frames > 0;
  // Frames still deferred when the stream ran out waited on a server
  // reaction that never came.
  const std::size_t stranded = exhausted ? bench.stranded() : 0;
  const bool correct =
      measured && failed == 0 && unexpected == 0 && stranded == 0;

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"rx_frames_per_s",
         ratio(static_cast<double>(timed_frames),
               static_cast<double>(timed_ns) * 1e-9),
         "1/s"},
        {"burst_us_p50", burst_hist.percentile(0.50) * 1e-3, "us"},
        {"burst_us_p99", burst_hist.percentile(0.99) * 1e-3, "us"},
        {"ok_frame_ratio",
         1.0 - ratio(static_cast<double>(failed),
                     static_cast<double>(attempted)),
         "ratio"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const auto per = [](double a, std::uint64_t b) {
      return ratio(a, static_cast<double>(b));
    };
    // A single timed span also times one clock read; take it off.
    const auto span = [&](double a, std::uint64_t b) {
      return b == 0 ? 0.0 : per(a, b) - clock_ns;
    };
    const double frames = static_cast<double>(acc.frames);
    metrics = {
        {"net.reassembly_ns", span(acc.offer_ns, acc.offers), "ns"},
        {"net.parse_ns", span(acc.parse_ns, acc.parses), "ns"},
        {"net.allocs_per_frame",
         ratio(static_cast<double>(acc.net_allocs), frames), "allocs/frame"},
        {"net.drop_ratio", ratio(static_cast<double>(acc.drops), frames),
         "ratio"},
        {"core.lookup_ns", span(acc.lookup_ns, acc.lookups_timed), "ns"},
        {"core.insert_ns", per(static_cast<double>(acc.insert_ns), acc.inserts),
         "ns"},
        {"core.erase_ns", span(acc.erase_ns, acc.erases), "ns"},
        {"core.examined_per_lookup", per(acc.examined, acc.lookups), "pcbs"},
        {"core.hit_ratio", per(acc.found, acc.lookups), "ratio"},
        {"core.bytes_per_pcb", bytes_per_pcb, "B/pcb"},
        {"core.resizes", static_cast<double>(resizes), "count"},
        {"tcp.deliver_self_ns",
         per(static_cast<double>(acc.self_ns), acc.selfs), "ns"},
        {"tcp.send_ns", span(acc.send_ns, acc.sends), "ns"},
        {"tcp.timer_ns", span(acc.timer_ns, acc.ticks), "ns"},
        {"tcp.allocs_per_frame",
         ratio(static_cast<double>(acc.tcp_allocs), frames), "allocs/frame"},
        {"tcp.emitted_per_frame",
         ratio(static_cast<double>(acc.emitted), frames), "segs/frame"},
        {"tcp.rst_ratio", per(acc.rsts, acc.delivered), "ratio"},
        {"tcp.syncache_completion_ratio",
         ratio(static_cast<double>(syn_end.promoted - syn_start.promoted),
               static_cast<double>(syn_end.added - syn_start.added)),
         "ratio"},
        {"harness.trace_overhead",
         ratio(per(acc.traced_frames, acc.traced_ns),
               per(acc.plain_frames, acc.plain_ns)),
         "ratio"},
    };
  }

  std::string slice_rates;
  for (const Slice& s : slices) {
    slice_rates += (slice_rates.empty() ? "" : ", ") +
                     num(std::round(ratio(static_cast<double>(s.frames),
                                          static_cast<double>(s.ns) * 1e-9)));
  }
  std::string setup_list;
  for (const double s : setup_s) {
    setup_list += (setup_list.empty() ? "" : ", ") + num(s);
  }
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(traffic.fingerprint));
  std::printf(
      "{\"rxbench\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %s, "
      "\"fingerprint\": \"%s\", \"provenance\": %s, \"demux\": \"%s\", "
      "\"burst_frames\": %zu, \"frames\": {\"setup\": %llu, \"warmup\": "
      "%llu, \"timed\": %llu}, \"bursts\": %llu, \"timed_s\": %s, "
      "\"slice_frames_per_s\": [%s], \"setup_s_samples\": [%s], "
      "\"failed_frame_ratio\": %s, \"unexpected_segments\": %llu, "
      "\"stranded_frames\": %zu, \"clock_read_ns\": %s, \"samples\": "
      "{\"traced_frames\": %llu, \"window_frames\": %llu, "
      "\"sends\": %llu, \"erases\": %llu, \"inserts\": %llu, \"ticks\": "
      "%llu}}}\n",
      traffic.workload.c_str(), static_cast<unsigned long long>(traffic.seed),
      options.trace ? "true" : "false", fp, options.provenance_json.c_str(),
      kDemuxSpec, kBurst, static_cast<unsigned long long>(setup_frames),
      static_cast<unsigned long long>(warmup_frames),
      static_cast<unsigned long long>(timed_frames),
      static_cast<unsigned long long>(bursts),
      num(static_cast<double>(timed_ns) * 1e-9).c_str(), slice_rates.c_str(),
      setup_list.c_str(),
      num(ratio(static_cast<double>(failed), static_cast<double>(attempted)))
          .c_str(),
      static_cast<unsigned long long>(unexpected), stranded,
      num(clock_ns).c_str(),
      static_cast<unsigned long long>(acc.traced_frames),
      static_cast<unsigned long long>(acc.frames),
      static_cast<unsigned long long>(acc.sends),
      static_cast<unsigned long long>(acc.erases),
      static_cast<unsigned long long>(acc.inserts),
      static_cast<unsigned long long>(acc.ticks));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics_json(metrics).c_str());
  std::fflush(stdout);
  return measured ? 0 : 3;
}

}  // namespace rxbench
