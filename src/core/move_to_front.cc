#include "core/move_to_front.h"

namespace tcpdemux::core {

Pcb* MoveToFrontDemuxer::insert(const net::FlowKey& key) {
  if (list_.find_scan(key).pcb != nullptr) return nullptr;
  if (insert_refused()) return nullptr;
  telemetry_->on_insert();
  return list_.emplace_front(key, next_conn_id());
}

bool MoveToFrontDemuxer::erase(const net::FlowKey& key) {
  const auto scan = list_.find_scan(key);
  if (scan.pcb == nullptr) return false;
  list_.erase(scan.pcb);
  telemetry_->on_erase();
  return true;
}

LookupResult MoveToFrontDemuxer::lookup(const net::FlowKey& key,
                                        SegmentKind /*kind*/) {
  LookupResult r;
  const auto scan = list_.find_scan(key);
  r.examined = scan.examined;
  r.pcb = scan.pcb;
  // A hit on the head node is the MTF analogue of a cache hit.
  r.cache_hit = (scan.pcb != nullptr && scan.examined == 1);
  if (scan.pcb != nullptr) list_.move_to_front(scan.pcb);
  note_lookup(r);
  return r;
}

LookupResult MoveToFrontDemuxer::lookup_wildcard(const net::FlowKey& key) {
  const auto scan = list_.find_best_match(key);
  return LookupResult{scan.pcb, scan.examined, false};
}

void MoveToFrontDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  list_.for_each(fn);
}

}  // namespace tcpdemux::core
