#include "core/hashed_mtf.h"

#include <stdexcept>

namespace tcpdemux::core {

HashedMtfDemuxer::HashedMtfDemuxer(Options options) : options_(options) {
  if (options_.chains == 0) {
    throw std::invalid_argument("HashedMtfDemuxer: chain count must be >= 1");
  }
  buckets_.resize(options_.chains);
}

Pcb* HashedMtfDemuxer::insert(const net::FlowKey& key) {
  PcbList& list = buckets_[chain_of(key)];
  if (list.find_scan(key).pcb != nullptr) return nullptr;
  if (insert_refused()) return nullptr;
  Pcb* pcb = list.emplace_front(key, next_conn_id());
  ++size_;
  telemetry_->on_insert();
  return pcb;
}

bool HashedMtfDemuxer::erase(const net::FlowKey& key) {
  PcbList& list = buckets_[chain_of(key)];
  const auto scan = list.find_scan(key);
  if (scan.pcb == nullptr) return false;
  list.erase(scan.pcb);
  --size_;
  telemetry_->on_erase();
  return true;
}

LookupResult HashedMtfDemuxer::lookup(const net::FlowKey& key,
                                      SegmentKind /*kind*/) {
  PcbList& list = buckets_[chain_of(key)];
  LookupResult r;
  const auto scan = list.find_scan(key);
  r.examined = scan.examined;
  r.pcb = scan.pcb;
  r.cache_hit = (scan.pcb != nullptr && scan.examined == 1);
  if (scan.pcb != nullptr) list.move_to_front(scan.pcb);
  note_lookup(r);
  return r;
}

LookupResult HashedMtfDemuxer::lookup_wildcard(const net::FlowKey& key) {
  // Home chain first, as in SequentDemuxer: an exact match returns there,
  // so only a key that misses its own chain sweeps the others.
  LookupResult best;
  int best_score = -1;
  const std::uint32_t home = chain_of(key);
  for (std::uint32_t i = 0; i < options_.chains; ++i) {
    const auto scan =
        buckets_[(home + i) % options_.chains].find_best_match(key);
    best.examined += scan.examined;
    if (scan.pcb == nullptr) continue;
    const int score = scan.pcb->key.match_score(key);
    if (score == 0) {
      best.pcb = scan.pcb;
      return best;
    }
    if (best_score < 0 || score < best_score) {
      best_score = score;
      best.pcb = scan.pcb;
    }
  }
  return best;
}

void HashedMtfDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  for (const PcbList& list : buckets_) {
    list.for_each(fn);
  }
}

std::string HashedMtfDemuxer::name() const {
  std::string n = "hashed_mtf(h=";
  n += std::to_string(options_.chains);
  n += ',';
  n += net::hasher_name(options_.hasher);
  n += ')';
  return n;
}

}  // namespace tcpdemux::core
