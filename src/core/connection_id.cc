#include "core/connection_id.h"

#include <stdexcept>

namespace tcpdemux::core {

ConnectionIdDemuxer::ConnectionIdDemuxer(std::size_t capacity)
    : capacity_(capacity), slots_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("ConnectionIdDemuxer: capacity must be >= 1");
  }
  free_ids_.reserve(capacity);
  for (std::size_t i = capacity; i-- > 0;) {
    free_ids_.push_back(static_cast<std::uint32_t>(i));
  }
}

Pcb* ConnectionIdDemuxer::insert(const net::FlowKey& key) {
  if (id_by_key_.contains(key)) return nullptr;
  if (free_ids_.empty()) return nullptr;  // ID space exhausted
  if (insert_refused()) return nullptr;
  const std::uint32_t id = free_ids_.back();
  free_ids_.pop_back();
  slots_[id] = std::make_unique<Pcb>(key, id);
  id_by_key_.emplace(key, id);
  telemetry_->on_insert();
  return slots_[id].get();
}

bool ConnectionIdDemuxer::erase(const net::FlowKey& key) {
  const auto it = id_by_key_.find(key);
  if (it == id_by_key_.end()) return false;
  const std::uint32_t id = it->second;
  slots_[id].reset();
  free_ids_.push_back(id);
  id_by_key_.erase(it);
  telemetry_->on_erase();
  return true;
}

LookupResult ConnectionIdDemuxer::lookup(const net::FlowKey& key,
                                         SegmentKind /*kind*/) {
  LookupResult r;
  r.examined = 1;  // the single array slot the carried ID indexes
  const auto it = id_by_key_.find(key);
  if (it != id_by_key_.end()) {
    r.pcb = slots_[it->second].get();
  }
  note_lookup(r);
  return r;
}

LookupResult ConnectionIdDemuxer::lookup_wildcard(const net::FlowKey& key) {
  // Connection-ID protocols have no wildcard path (connection setup carries
  // the ID explicitly). A resident key is found through the key index like
  // lookup(); anything else falls back to scanning the slot table.
  LookupResult best;
  if (const auto it = id_by_key_.find(key); it != id_by_key_.end()) {
    best.examined = 1;
    best.pcb = slots_[it->second].get();
    return best;
  }
  int best_score = -1;
  for (const auto& slot : slots_) {
    if (slot == nullptr) continue;
    ++best.examined;
    const int score = slot->key.match_score(key);
    if (score < 0) continue;
    if (score == 0) {
      best.pcb = slot.get();
      return best;
    }
    if (best_score < 0 || score < best_score) {
      best_score = score;
      best.pcb = slot.get();
    }
  }
  return best;
}

Pcb* ConnectionIdDemuxer::lookup_by_id(std::uint32_t id) const noexcept {
  if (id >= capacity_) return nullptr;
  return slots_[id].get();
}

void ConnectionIdDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  for (const auto& slot : slots_) {
    if (slot != nullptr) fn(*slot);
  }
}

}  // namespace tcpdemux::core
