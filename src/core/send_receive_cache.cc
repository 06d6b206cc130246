#include "core/send_receive_cache.h"

namespace tcpdemux::core {

Pcb* SendReceiveCacheDemuxer::insert(const net::FlowKey& key) {
  if (list_.find_scan(key).pcb != nullptr) return nullptr;
  if (insert_refused()) return nullptr;
  telemetry_->on_insert();
  return list_.emplace_front(key, next_conn_id());
}

bool SendReceiveCacheDemuxer::erase(const net::FlowKey& key) {
  const auto scan = list_.find_scan(key);
  if (scan.pcb == nullptr) return false;
  if (recv_cache_ == scan.pcb) recv_cache_ = nullptr;
  if (send_cache_ == scan.pcb) send_cache_ = nullptr;
  list_.erase(scan.pcb);
  telemetry_->on_erase();
  return true;
}

bool SendReceiveCacheDemuxer::probe(Pcb* slot, const net::FlowKey& key,
                                    LookupResult& r) noexcept {
  if (slot == nullptr) return false;
  ++r.examined;
  if (slot->key == key) {
    r.pcb = slot;
    r.cache_hit = true;
    return true;
  }
  return false;
}

LookupResult SendReceiveCacheDemuxer::lookup(const net::FlowKey& key,
                                             SegmentKind kind) {
  LookupResult r;
  Pcb* first = (kind == SegmentKind::kData) ? recv_cache_ : send_cache_;
  Pcb* second = (kind == SegmentKind::kData) ? send_cache_ : recv_cache_;
  if (!probe(first, key, r)) {
    // Avoid a redundant probe when both slots hold the same PCB.
    if (second != first) probe(second, key, r);
  }
  if (r.pcb == nullptr) {
    const auto scan = list_.find_scan(key);
    r.examined += scan.examined;
    r.pcb = scan.pcb;
  }
  if (r.pcb != nullptr) recv_cache_ = r.pcb;
  note_lookup(r);
  return r;
}

LookupResult SendReceiveCacheDemuxer::lookup_wildcard(
    const net::FlowKey& key) {
  const auto scan = list_.find_best_match(key);
  return LookupResult{scan.pcb, scan.examined, false};
}

void SendReceiveCacheDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  list_.for_each(fn);
}

}  // namespace tcpdemux::core
