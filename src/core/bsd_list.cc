#include "core/bsd_list.h"

namespace tcpdemux::core {

Pcb* BsdListDemuxer::insert(const net::FlowKey& key) {
  if (list_.find_scan(key).pcb != nullptr) return nullptr;
  if (insert_refused()) return nullptr;
  telemetry_->on_insert();
  return list_.emplace_front(key, next_conn_id());
}

bool BsdListDemuxer::erase(const net::FlowKey& key) {
  const auto scan = list_.find_scan(key);
  if (scan.pcb == nullptr) return false;
  if (cache_ == scan.pcb) cache_ = nullptr;
  list_.erase(scan.pcb);
  telemetry_->on_erase();
  return true;
}

LookupResult BsdListDemuxer::lookup(const net::FlowKey& key,
                                    SegmentKind /*kind*/) {
  LookupResult r;
  if (cache_ != nullptr) {
    ++r.examined;
    if (cache_->key == key) {
      r.pcb = cache_;
      r.cache_hit = true;
      note_lookup(r);
      return r;
    }
  }
  const auto scan = list_.find_scan(key);
  r.examined += scan.examined;
  r.pcb = scan.pcb;
  if (scan.pcb != nullptr) cache_ = scan.pcb;
  note_lookup(r);
  return r;
}

LookupResult BsdListDemuxer::lookup_wildcard(const net::FlowKey& key) {
  const auto scan = list_.find_best_match(key);
  return LookupResult{scan.pcb, scan.examined, false};
}

void BsdListDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  list_.for_each(fn);
}

}  // namespace tcpdemux::core
