#include "tcp/socket_table.h"

#include <algorithm>
#include <utility>

#include "tcp/rtt.h"

namespace tcpdemux::tcp {

using core::Pcb;
using net::TcpFlag;

SocketTable::SocketTable(const core::DemuxConfig& demux_config,
                         TransmitFn transmit)
    : demuxer_(core::make_demuxer(demux_config)),
      transmit_(std::move(transmit)),
      machine_([this](Pcb& pcb, const Emit& emit) {
        transmit_segment(pcb, emit);
      }) {}

bool SocketTable::listen(net::Ipv4Addr addr, std::uint16_t port) {
  for (const Listener& l : listeners_) {
    if (l.addr == addr && l.port == port) return false;
  }
  listeners_.push_back(Listener{addr, port});
  return true;
}

Pcb* SocketTable::connect(const net::FlowKey& key) {
  Pcb* pcb = demuxer_->insert(key);
  if (pcb == nullptr) return nullptr;
  machine_.open_active(*pcb);
  return pcb;
}

Pcb* SocketTable::accept() {
  if (accept_queue_.empty()) return nullptr;
  Pcb* pcb = accept_queue_.front();
  accept_queue_.erase(accept_queue_.begin());
  return pcb;
}

bool SocketTable::erase(const net::FlowKey& key) {
  Pcb* pcb = find(key);
  if (pcb != nullptr) {
    accept_queue_.erase(
        std::remove(accept_queue_.begin(), accept_queue_.end(), pcb),
        accept_queue_.end());
    release_timer_record(*pcb);
  }
  return demuxer_->erase(key);
}

SocketTable::TimerRecord& SocketTable::timer_record(Pcb& pcb) {
  if (pcb.timer_record == Pcb::kNoTimerRecord) {
    if (live_records_ == records_.size()) records_.emplace_back();
    pcb.timer_record = static_cast<std::uint32_t>(live_records_++);
    records_[pcb.timer_record].pcb = &pcb;
  }
  return records_[pcb.timer_record];
}

void SocketTable::rearm(TimerRecord& record, const Pcb& pcb) noexcept {
  record.due = record.retransmit.empty()
                   ? TimerRecord::kNever
                   : record.retransmit.front().last_sent + pcb.rto_us / 1e6 -
                         kDueSlack;
}

void SocketTable::release_timer_record(Pcb& pcb) noexcept {
  const std::uint32_t i = pcb.timer_record;
  if (i == Pcb::kNoTimerRecord) return;
  pcb.timer_record = Pcb::kNoTimerRecord;
  const std::size_t last = --live_records_;
  if (i != last) {
    std::swap(records_[i], records_[last]);
    records_[i].pcb->timer_record = i;
  }
  TimerRecord& freed = records_[last];
  freed.pcb = nullptr;
  freed.due = TimerRecord::kNever;
  freed.retransmit.clear();
  freed.closing_since.reset();
}

std::size_t SocketTable::reap_closed(double msl) {
  if (!clock_) return 0;
  const double now = clock_();
  std::size_t reaped = 0;
  // Backwards, so erasing record i moves an already-visited one into it.
  for (std::size_t i = live_records_; i-- > 0;) {
    const TimerRecord& record = records_[i];
    if (!record.closing_since.has_value()) continue;
    const Pcb& pcb = *record.pcb;
    const bool expired = pcb.state == core::TcpState::kClosed ||
                         (pcb.state == core::TcpState::kTimeWait &&
                          now - *record.closing_since >= 2.0 * msl);
    if (!expired) continue;
    const net::FlowKey key = pcb.key;  // erase() destroys the PCB
    if (erase(key)) ++reaped;
  }
  return reaped;
}

const SocketTable::Listener* SocketTable::find_listener(
    const net::FlowKey& packet_key) const noexcept {
  const Listener* best = nullptr;
  for (const Listener& l : listeners_) {
    if (l.port != packet_key.local_port) continue;
    if (l.addr == packet_key.local_addr) return &l;  // exact beats wildcard
    if (l.addr.is_any() && best == nullptr) best = &l;
  }
  return best;
}

SocketTable::DeliverResult SocketTable::deliver_wire(
    std::span<const std::uint8_t> wire) {
  // Start the lookup's first DRAM loads now so they overlap the header
  // parse and both checksums instead of following them.
  if (const auto key = net::Packet::peek_receiver_flow_key(wire)) {
    demuxer_->prefetch(*key);
  }
  const auto packet = net::Packet::parse(wire);
  if (!packet) {
    ++counters_.parse_errors;
    return DeliverResult{};
  }
  return deliver(*packet);
}

SocketTable::DeliverResult SocketTable::deliver(const net::Packet& packet) {
  DeliverResult result;
  const net::FlowKey key = packet.receiver_flow_key();

  // Pure ACKs probe the send-side cache first (paper §3.3 footnote 5);
  // anything carrying payload or SYN/FIN counts as data.
  const bool pure_ack = packet.payload.empty() &&
                        packet.tcp.has(TcpFlag::kAck) &&
                        !packet.tcp.has(TcpFlag::kSyn) &&
                        !packet.tcp.has(TcpFlag::kFin);
  const auto lookup = demuxer_->lookup(
      key, pure_ack ? core::SegmentKind::kAck : core::SegmentKind::kData);
  result.pcbs_examined = lookup.examined;

  if (lookup.pcb != nullptr) {
    const core::TcpState before = lookup.pcb->state;
    machine_.process(*lookup.pcb, packet.tcp,
                     static_cast<std::uint32_t>(packet.payload.size()));
    if (before == core::TcpState::kSynReceived &&
        lookup.pcb->state == core::TcpState::kEstablished) {
      accept_queue_.push_back(lookup.pcb);
    }
    if (clock_ && lookup.pcb->state != before &&
        (lookup.pcb->state == core::TcpState::kTimeWait ||
         lookup.pcb->state == core::TcpState::kClosed)) {
      TimerRecord& record = timer_record(*lookup.pcb);
      if (!record.closing_since) record.closing_since = clock_();
    }
    note_acked(*lookup.pcb);
    ++counters_.delivered;
    result.status = Delivery::kDelivered;
    result.pcb = lookup.pcb;
    return result;
  }

  if (packet.tcp.has(TcpFlag::kSyn) && !packet.tcp.has(TcpFlag::kAck) &&
      find_listener(key) != nullptr) {
    if (syn_cache_) {
      // Park the embryo; no PCB until the handshake completes. A
      // retransmitted SYN finds its existing entry and reuses its ISS.
      const SynCache::Entry* entry = syn_cache_->add(
          key, packet.tcp.seq, machine_.next_iss(), clock_ ? clock_() : 0.0);
      net::PacketBuilder builder;
      builder.from({key.local_addr, key.local_port})
          .to({key.foreign_addr, key.foreign_port})
          .seq(entry->iss)
          .ack_seq(entry->irs + 1)
          .flags(TcpFlag::kSyn);
      static thread_local core::Pcb embryo_pcb{net::FlowKey{}, ~0ULL - 1};
      embryo_pcb.key = key;
      transmit_(builder.build(), embryo_pcb);
      result.status = Delivery::kSynCached;
      return result;
    }
    Pcb* child = demuxer_->insert(key);
    if (child != nullptr) {
      machine_.open_passive(*child, packet.tcp);
      ++counters_.new_connections;
      result.status = Delivery::kNewConnection;
      result.pcb = child;
      return result;
    }
  }

  // A pure ACK that matched no PCB may complete a SYN-cached handshake.
  if (syn_cache_ && pure_ack) {
    SynCache::Entry entry;
    if (syn_cache_->find(key) != nullptr && syn_cache_->take(key, &entry)) {
      if (packet.tcp.ack == entry.iss + 1 &&
          packet.tcp.seq == entry.irs + 1) {
        Pcb* child = demuxer_->insert(key);
        if (child != nullptr) {
          child->iss = entry.iss;
          child->irs = entry.irs;
          child->snd_una = entry.iss + 1;
          child->snd_nxt = entry.iss + 1;
          child->rcv_nxt = entry.irs + 1;
          child->state = core::TcpState::kEstablished;
          ++child->segs_in;
          accept_queue_.push_back(child);
          ++counters_.new_connections;
          result.status = Delivery::kNewConnection;
          result.pcb = child;
          return result;
        }
      }
      // Bad ACK for an embryo: fall through to the RST path.
    }
  }

  transmit_rst(packet);
  ++counters_.resets_sent;
  result.status = Delivery::kReset;
  return result;
}

void SocketTable::note_acked(Pcb& pcb) {
  if (!clock_ || pcb.timer_record == Pcb::kNoTimerRecord) return;
  TimerRecord& record = records_[pcb.timer_record];
  RetransmitQueue& queue = record.retransmit;
  const std::size_t outstanding_before = queue.size();
  const auto sample = queue.on_ack(pcb.snd_una, clock_());
  std::optional<RetransmitQueue::Segment> resend;
  if (queue.size() < outstanding_before) {
    pcb.dupacks = 0;
    if (sample.has_value() && *sample >= 0.0) {
      update_pcb_rtt(pcb, static_cast<std::uint32_t>(*sample * 1e6));
    } else {
      // Forward progress acknowledged via a retransmission: Karn forbids a
      // sample, but the backed-off RTO may return to the estimator's value
      // — or the 1 s default when no sample ever succeeded — so recovery
      // keeps a steady cadence (RFC 6298 §5.7's allowance).
      pcb.rto_us =
          pcb.srtt_us != 0
              ? std::clamp(pcb.srtt_us + std::max(1000u, 4 * pcb.rttvar_us),
                           1'000'000u, 60'000'000u)
              : 1'000'000u;
    }
  } else if (!queue.empty()) {
    // A non-advancing ACK while data is outstanding: a duplicate. Three in
    // a row trigger fast retransmit of the oldest segment (RFC 5681 §3.2,
    // without the congestion-window machinery).
    if (++pcb.dupacks >= 3) {
      pcb.dupacks = 0;
      resend = queue.take_front(clock_());
    }
  }
  rearm(record, pcb);
  if (queue.empty() && !record.closing_since) release_timer_record(pcb);
  // Last: the transmit callback may grow records_, invalidating `record`.
  if (resend) retransmit_segment(pcb, *resend);
}

void SocketTable::retransmit_segment(Pcb& pcb,
                                     const RetransmitQueue::Segment& segment) {
  // Rebuild the segment; the receiver's cumulative ACK logic treats a
  // duplicate seq as an old friend.
  net::PacketBuilder builder;
  builder.from({pcb.key.local_addr, pcb.key.local_port})
      .to({pcb.key.foreign_addr, pcb.key.foreign_port})
      .seq(segment.seq)
      .ack_seq(pcb.rcv_nxt)
      .flags(TcpFlag::kPsh)
      .window(pcb.rcv_wnd)
      .payload_size(segment.len);
  demuxer_->note_sent(&pcb);
  ++pcb.segs_out;
  ++counters_.retransmissions;
  transmit_(builder.build(), pcb);  // last: see TransmitFn
}

std::size_t SocketTable::poll_retransmits() {
  if (!clock_) return 0;
  const double now = clock_();
  std::size_t resent = 0;
  // Backwards by index, re-reading records_ each step. A transmit callback
  // may take records (appended behind the walk, with nothing yet due) or
  // free them. Freeing one moves the last held record into its place: that
  // record is either still ahead of the walk or already visited, and a
  // second visit finds nothing due.
  for (std::size_t i = live_records_; i-- > 0;) {
    if (i >= live_records_) continue;  // freed by a callback
    TimerRecord& record = records_[i];
    if (now < record.due) continue;  // touches neither the PCB nor the ring
    Pcb& pcb = *record.pcb;
    // Classic RTO behavior: resend only the oldest outstanding segment and
    // back the timer off once; the cumulative ACK it provokes re-arms
    // recovery for the rest (retransmitting the whole queue would mark
    // every segment with Karn's bit and starve the RTT estimator forever).
    const auto segment = record.retransmit.take_expired(now, pcb.rto_us / 1e6);
    if (!segment) continue;
    pcb.rto_us = std::min<std::uint32_t>(pcb.rto_us * 2, 60'000'000u);
    rearm(record, pcb);
    ++resent;
    retransmit_segment(pcb, *segment);  // neither record nor pcb used after
  }
  return resent;
}

void SocketTable::transmit_segment(Pcb& pcb, const Emit& emit) {
  net::PacketBuilder builder;
  builder.from({pcb.key.local_addr, pcb.key.local_port})
      .to({pcb.key.foreign_addr, pcb.key.foreign_port})
      .seq(emit.seq)
      .flags(emit.flags)
      .window(pcb.rcv_wnd)
      .payload_size(emit.payload_len);
  if ((emit.flags & static_cast<std::uint8_t>(TcpFlag::kAck)) != 0) {
    builder.ack_seq(emit.ack);
  }
  if (clock_ && emit.payload_len > 0) {
    TimerRecord& record = timer_record(pcb);
    record.retransmit.on_send(emit.seq, emit.payload_len, clock_());
    rearm(record, pcb);
  }
  demuxer_->note_sent(&pcb);
  transmit_(builder.build(), pcb);
}

void SocketTable::transmit_rst(const net::Packet& packet) {
  // RFC 793: if the incoming segment has an ACK, the RST takes its seq from
  // the segment's ack field; otherwise seq 0 with ACK covering the segment.
  const net::FlowKey key = packet.receiver_flow_key();
  net::PacketBuilder builder;
  builder.from({key.local_addr, key.local_port})
      .to({key.foreign_addr, key.foreign_port})
      .flags(TcpFlag::kRst);
  if (packet.tcp.has(TcpFlag::kAck)) {
    builder.seq(packet.tcp.ack);
  } else {
    const std::uint32_t syn_fin =
        (packet.tcp.has(TcpFlag::kSyn) ? 1 : 0) +
        (packet.tcp.has(TcpFlag::kFin) ? 1 : 0);
    builder.seq(0).ack_seq(packet.tcp.seq +
                           static_cast<std::uint32_t>(packet.payload.size()) +
                           syn_fin);
  }
  // A RST belongs to no PCB; report it against a synthetic closed one.
  static thread_local Pcb rst_pcb{net::FlowKey{}, ~0ULL};
  rst_pcb.key = key;
  transmit_(builder.build(), rst_pcb);
}

}  // namespace tcpdemux::tcp
