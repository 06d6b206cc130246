#include "core/sequent_hash.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/prefetch.h"

namespace tcpdemux::core {

SequentDemuxer::SequentDemuxer(Options options) : options_(options) {
  if (options_.chains == 0) {
    throw std::invalid_argument("SequentDemuxer: chain count must be >= 1");
  }
  buckets_.resize(options_.chains);
}

Pcb* SequentDemuxer::insert(const net::FlowKey& key) {
  Bucket& b = buckets_[chain_of(key)];
  if (b.list.find_scan(key).pcb != nullptr) return nullptr;
  if (options_.max_pcbs != 0 && size_ >= options_.max_pcbs) {
    ++inserts_shed_;
    telemetry_->on_shed();
    return nullptr;
  }
  if (insert_refused()) return nullptr;
  Pcb* pcb = b.list.emplace_front(key, next_conn_id());
  ++size_;
  telemetry_->on_insert();
  note_insert(b);
  return pcb;
}

void SequentDemuxer::note_insert(const Bucket& b) {
  watermark_ = std::max<std::uint64_t>(watermark_, b.list.size());
  ++inserts_since_rehash_;
  if (options_.rehash_on_overload && watermark_ > watermark_limit() &&
      inserts_since_rehash_ >= rehash_cooldown_) {
    rehash_with_fresh_seed();
  }
}

void SequentDemuxer::rehash_with_fresh_seed() {
  options_.hasher.seed = net::next_seed(options_.hasher.seed);
  std::vector<Bucket> old;
  old.swap(buckets_);
  buckets_.resize(options_.chains);
  for (Bucket& ob : old) {
    while (Pcb* pcb = ob.list.extract_front()) {
      buckets_[chain_of(pcb->key)].list.adopt_front(pcb);
    }
  }
  watermark_ = 0;
  for (const Bucket& nb : buckets_) {
    watermark_ = std::max<std::uint64_t>(watermark_, nb.list.size());
  }
  ++overload_rehashes_;
  telemetry_->on_rehash();
  inserts_since_rehash_ = 0;
  // Hysteresis: even if every key collides under every seed (full-32-bit
  // collisions survive the seeded post-mix of non-SipHash kinds), at most
  // one rehash per `limit` further inserts — bounded thrash, and benign
  // workloads that momentarily crossed the line get a fresh start.
  rehash_cooldown_ = watermark_limit();
}

ResilienceStats SequentDemuxer::resilience() const {
  return {overload_rehashes_, inserts_shed_, watermark_, watermark_limit()};
}

bool SequentDemuxer::erase(const net::FlowKey& key) {
  Bucket& b = buckets_[chain_of(key)];
  const auto scan = b.list.find_scan(key);
  if (scan.pcb == nullptr) return false;
  if (b.cache == scan.pcb) b.cache = nullptr;
  b.list.erase(scan.pcb);
  --size_;
  telemetry_->on_erase();
  return true;
}

LookupResult SequentDemuxer::lookup_in_bucket(Bucket& b,
                                              const net::FlowKey& key) {
  LookupResult r;
  if (options_.per_chain_cache && b.cache != nullptr) {
    ++r.examined;
    if (b.cache->key == key) {
      r.pcb = b.cache;
      r.cache_hit = true;
      return r;
    }
  }
  const auto scan = b.list.find_scan(key);
  r.examined += scan.examined;
  r.pcb = scan.pcb;
  if (options_.per_chain_cache && scan.pcb != nullptr) b.cache = scan.pcb;
  return r;
}

LookupResult SequentDemuxer::lookup(const net::FlowKey& key,
                                    SegmentKind /*kind*/) {
  const LookupResult r = lookup_in_bucket(buckets_[chain_of(key)], key);
  note_lookup(r);
  return r;
}

void SequentDemuxer::lookup_batch(std::span<const net::FlowKey> keys,
                                  std::span<LookupResult> results,
                                  SegmentKind /*kind*/) {
  // Three-stage pipeline per chunk: (1) hash every key and prefetch its
  // bucket header (cache pointer + chain head); (2) with the headers
  // landing, prefetch the first PCB each probe will touch — the cached
  // entry when the cache is armed, else the chain head; (3) probe. The
  // dependent loads of a whole burst overlap instead of serializing.
  constexpr std::size_t kChunk = 16;
  std::array<Bucket*, kChunk> bucket;
  for (std::size_t base = 0; base < keys.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, keys.size() - base);
    for (std::size_t i = 0; i < n; ++i) {
      bucket[i] = &buckets_[chain_of(keys[base + i])];
      prefetch_read(bucket[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Bucket& b = *bucket[i];
      const Pcb* const first =
          (options_.per_chain_cache && b.cache != nullptr) ? b.cache
                                                           : b.list.head();
      if (first != nullptr) prefetch_read(first);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const LookupResult r = lookup_in_bucket(*bucket[i], keys[base + i]);
      note_lookup(r);
      results[base + i] = r;
    }
  }
}

LookupResult SequentDemuxer::lookup_wildcard(const net::FlowKey& key) {
  // A wildcard-bearing PCB may live on a different chain than the packet's
  // hash (its foreign half is zero), so all chains must be consulted; exact
  // matches still short-circuit within the packet's own chain first.
  LookupResult best;
  int best_score = -1;
  const std::uint32_t home = chain_of(key);
  for (std::uint32_t i = 0; i < options_.chains; ++i) {
    const std::uint32_t c = (home + i) % options_.chains;
    const auto scan = buckets_[c].list.find_best_match(key);
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

void SequentDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  for (const Bucket& b : buckets_) {
    b.list.for_each(fn);
  }
}

std::string SequentDemuxer::name() const {
  std::string n = "sequent(h=";
  n += std::to_string(options_.chains);
  n += ',';
  n += net::hash_spec_name(options_.hasher);
  if (!options_.per_chain_cache) n += ",nocache";
  if (options_.rehash_on_overload) n += ",rehash";
  if (options_.max_pcbs != 0) n += ",max=" + std::to_string(options_.max_pcbs);
  n += ')';
  return n;
}

std::vector<std::size_t> SequentDemuxer::chain_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(buckets_.size());
  for (const Bucket& b : buckets_) sizes.push_back(b.list.size());
  return sizes;
}

}  // namespace tcpdemux::core
