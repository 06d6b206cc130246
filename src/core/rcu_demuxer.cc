#include "core/rcu_demuxer.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/fault_inject.h"
#include "core/prefetch.h"

namespace tcpdemux::core {

RcuSequentDemuxer::RcuSequentDemuxer(Options options) : options_(options) {
  if (options_.chains == 0) {
    throw std::invalid_argument("RcuSequentDemuxer: chain count must be >= 1");
  }
  buckets_.reserve(options_.chains);
  for (std::uint32_t i = 0; i < options_.chains; ++i) {
    buckets_.push_back(std::make_unique<Bucket>());
  }
}

RcuSequentDemuxer::~RcuSequentDemuxer() {
  // Caller guarantees quiescence (no guards alive). Live nodes are only
  // in the chains; retired ones live in the epoch manager's limbo and are
  // freed by its destructor.
  for (auto& bucket : buckets_) {
    Node* n = bucket->head.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;  // NOLINT(raw-owning-memory)
      n = next;
    }
  }
}

Pcb* RcuSequentDemuxer::insert(const net::FlowKey& key,
                               const std::function<bool()>& refused) {
  Bucket& b = *buckets_[chain_of(key)];
  const MutexLock lock(b.mutex);
  for (Node* n = b.head.load(std::memory_order_relaxed); n != nullptr;
       n = n->next.load(std::memory_order_relaxed)) {
    if (n->pcb.key == key) return nullptr;
  }
  if (refused ? refused() : FaultInjector::instance().poll_alloc()) {
    return nullptr;
  }
  // NOLINTNEXTLINE(raw-owning-memory): chain nodes are epoch-owned.
  Node* node = new Node(key, conn_seq_.fetch_add(1, std::memory_order_relaxed));
  node->next.store(b.head.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  // Release-publish: a reader that acquires the new head sees the fully
  // constructed node, key included.
  b.head.store(node, std::memory_order_release);
  size_.fetch_add(1, std::memory_order_relaxed);
  return &node->pcb;
}

bool RcuSequentDemuxer::erase(const net::FlowKey& key) {
  Bucket& b = *buckets_[chain_of(key)];
  Node* victim = nullptr;
  {
    const MutexLock lock(b.mutex);
    Node* prev = nullptr;
    Node* cur = b.head.load(std::memory_order_relaxed);
    while (cur != nullptr && !(cur->pcb.key == key)) {
      prev = cur;
      cur = cur->next.load(std::memory_order_relaxed);
    }
    if (cur == nullptr) return false;
    // Order matters: mark retired (so no reader re-installs it into the
    // cache), drop it from the cache, then unlink. Readers already past
    // the predecessor may still traverse the node — its next pointer
    // stays intact, so they continue down the chain unharmed.
    cur->retired = true;
    if (b.cache.load(std::memory_order_relaxed) == cur) {
      b.cache.store(nullptr, std::memory_order_release);
    }
    Node* next = cur->next.load(std::memory_order_relaxed);
    if (prev != nullptr) {
      prev->next.store(next, std::memory_order_release);
    } else {
      b.head.store(next, std::memory_order_release);
    }
    size_.fetch_sub(1, std::memory_order_relaxed);
    victim = cur;
  }
  epoch_.retire(victim, &delete_node);
  return true;
}

LookupResult RcuSequentDemuxer::lookup_in_chain(
    Bucket& b, const net::FlowKey& key) noexcept {
  LookupResult r;
  if (options_.per_chain_cache) {
    Node* cached = b.cache.load(std::memory_order_acquire);
    if (cached != nullptr) {
      ++r.examined;
      if (cached->pcb.key == key) {
        r.pcb = &cached->pcb;
        r.cache_hit = true;
        return r;
      }
    }
  }
  Node* found = nullptr;
  for (Node* n = b.head.load(std::memory_order_acquire); n != nullptr;
       n = n->next.load(std::memory_order_acquire)) {
    ++r.examined;
    if (n->pcb.key == key) {
      found = n;
      break;
    }
  }
  if (found != nullptr) {
    r.pcb = &found->pcb;
    if (options_.per_chain_cache && b.mutex.try_lock()) {
      // The cache is a hint: install only if the chain lock is free, and
      // never install a node a concurrent erase has already retired —
      // that pointer would outlive its grace period.
      if (!found->retired) {
        b.cache.store(found, std::memory_order_release);
      }
      b.mutex.unlock();
    }
  }
  return r;
}

LookupResult RcuSequentDemuxer::lookup(const net::FlowKey& key,
                                       SegmentKind /*kind*/) {
  Bucket& b = *buckets_[chain_of(key)];
  LookupResult r;
  {
    const EpochManager::Guard guard(epoch_);
    r = lookup_in_chain(b, key);
  }
  lookups_.fetch_add(1, std::memory_order_relaxed);
  examined_.fetch_add(r.examined, std::memory_order_relaxed);
  return r;
}

void RcuSequentDemuxer::lookup_batch(std::span<const net::FlowKey> keys,
                                     std::span<LookupResult> results,
                                     SegmentKind /*kind*/) {
  constexpr std::size_t kChunk = 16;
  std::array<Bucket*, kChunk> chain;
  std::uint64_t examined = 0;
  const EpochManager::Guard guard(epoch_);
  for (std::size_t base = 0; base < keys.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, keys.size() - base);
    // Hash the whole chunk first and prefetch each bucket's header line,
    // so the chain walks below start with the heads already in flight.
    for (std::size_t i = 0; i < n; ++i) {
      chain[i] = buckets_[chain_of(keys[base + i])].get();
      prefetch_read(chain[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      results[base + i] = lookup_in_chain(*chain[i], keys[base + i]);
      examined += results[base + i].examined;
    }
  }
  lookups_.fetch_add(keys.size(), std::memory_order_relaxed);
  examined_.fetch_add(examined, std::memory_order_relaxed);
}

LookupResult RcuSequentDemuxer::lookup_wildcard(const net::FlowKey& key) {
  // Mirrors SequentDemuxer::lookup_wildcard: the packet's home chain is
  // consulted first so an exact match short-circuits; wildcard-bearing
  // PCBs hash elsewhere, so all chains must be scanned otherwise.
  const EpochManager::Guard guard(epoch_);
  LookupResult best;
  int best_score = -1;
  const std::uint32_t home = chain_of(key);
  for (std::uint32_t i = 0; i < options_.chains; ++i) {
    Bucket& b = *buckets_[(home + i) % options_.chains];
    Node* chain_best = nullptr;
    int chain_score = -1;
    for (Node* n = b.head.load(std::memory_order_acquire); n != nullptr;
         n = n->next.load(std::memory_order_acquire)) {
      ++best.examined;
      const int score = n->pcb.key.match_score(key);
      if (score < 0) continue;
      if (score == 0) {
        best.pcb = &n->pcb;
        return best;
      }
      if (chain_score < 0 || score < chain_score) {
        chain_score = score;
        chain_best = n;
      }
    }
    if (chain_best == nullptr) continue;
    if (best_score < 0 || chain_score < best_score) {
      best_score = chain_score;
      best.pcb = &chain_best->pcb;
    }
  }
  return best;
}

void RcuSequentDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  const EpochManager::Guard guard(epoch_);
  for (const auto& bucket : buckets_) {
    for (Node* n = bucket->head.load(std::memory_order_acquire); n != nullptr;
         n = n->next.load(std::memory_order_acquire)) {
      fn(n->pcb);
    }
  }
}

std::string RcuSequentDemuxer::name() const {
  std::string n = "rcu(h=";
  n += std::to_string(options_.chains);
  n += ',';
  n += net::hash_spec_name(options_.hasher);
  if (!options_.per_chain_cache) n += ",nocache";
  n += ')';
  return n;
}

std::vector<std::size_t> RcuSequentDemuxer::chain_sizes() const {
  std::vector<std::size_t> sizes;
  sizes.reserve(buckets_.size());
  const EpochManager::Guard guard(epoch_);
  for (const auto& bucket : buckets_) {
    std::size_t n = 0;
    for (Node* node = bucket->head.load(std::memory_order_acquire);
         node != nullptr; node = node->next.load(std::memory_order_acquire)) {
      ++n;
    }
    sizes.push_back(n);
  }
  return sizes;
}

std::size_t RcuSequentDemuxer::memory_bytes() const {
  return size() * sizeof(Node) + sizeof(*this) +
         buckets_.capacity() * (sizeof(std::unique_ptr<Bucket>) +
                                sizeof(Bucket)) +
         epoch_.memory_bytes();
}

}  // namespace tcpdemux::core
