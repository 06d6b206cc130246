#include "core/dynamic_hash.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "core/fault_inject.h"
#include "core/resize_policy.h"

namespace tcpdemux::core {
namespace {

// Primes that roughly double; the ladder a kernel hashtable would bake in.
constexpr std::array<std::uint32_t, 20> kPrimes = {
    19,    41,    83,     167,    337,    673,    1361,
    2729,  5471,  10949,  21911,  43853,  87719,  175447,
    350899, 701819, 1403641, 2807303, 5614657, 11229331};

}  // namespace

std::uint32_t DynamicHashDemuxer::next_table_size(std::uint32_t n) noexcept {
  for (const std::uint32_t p : kPrimes) {
    if (p >= 2 * n) return p;
  }
  return kPrimes.back();
}

DynamicHashDemuxer::DynamicHashDemuxer(Options options) : options_(options) {
  if (options_.initial_chains == 0) {
    throw std::invalid_argument(
        "DynamicHashDemuxer: chain count must be >= 1");
  }
  if (options_.max_load <= 0.0) {
    throw std::invalid_argument("DynamicHashDemuxer: max_load must be > 0");
  }
  buckets_.resize(options_.initial_chains);
}

void DynamicHashDemuxer::maybe_grow() {
  if (static_cast<double>(size_) <=
      options_.max_load * static_cast<double>(buckets_.size())) {
    return;
  }
  if (options_.incremental && old_ != nullptr) {
    // The *new* array itself hit the trigger while the old one still
    // drains: churn outpaced migration. Finish the drain (bounded by the
    // remaining debt), then start the next doubling below.
    finish_migration();
  }
  const std::uint32_t new_size =
      next_table_size(static_cast<std::uint32_t>(buckets_.size()));
  if (new_size <= buckets_.size()) return;  // ladder exhausted

  if (options_.incremental) {
    if (grow_blocked_ && grow_retry_in_ > 0) {
      --grow_retry_in_;
      return;
    }
    start_migration(new_size);
    return;
  }

  std::vector<Bucket> grown(new_size);
  for (Bucket& old : buckets_) {
    while (Pcb* pcb = old.list.extract_front()) {
      const std::uint32_t c =
          net::hash_chain(options_.hasher, pcb->key, new_size);
      grown[c].list.adopt_front(pcb);
    }
  }
  buckets_ = std::move(grown);  // all per-chain caches start cold
  ++rehashes_;
  telemetry_->on_rehash();
}

bool DynamicHashDemuxer::start_migration(std::uint32_t new_size) {
  if (FaultInjector::instance().poll_alloc()) {
    defer_migration();
    return false;
  }
  std::unique_ptr<OldBuckets> old;
  std::vector<Bucket> grown;
  try {
    old = std::make_unique<OldBuckets>();
    grown.resize(new_size);
  } catch (const std::bad_alloc&) {
    defer_migration();
    return false;
  }
  // Everything allocated: swing the live array behind the drain cursor.
  // No failure path from here on, so no intermediate state can leak.
  old->residents = size_;
  old->buckets = std::move(buckets_);
  old_ = std::move(old);
  buckets_ = std::move(grown);
  grow_blocked_ = false;
  grow_backoff_ = 0;
  grow_retry_in_ = 0;
  ++rehashes_;
  telemetry_->on_rehash();
  telemetry_->on_resize_start();
  return true;
}

void DynamicHashDemuxer::defer_migration() {
  grow_blocked_ = true;
  grow_backoff_ =
      grow_backoff_ == 0
          ? kGrowBackoffMin
          : std::min<std::uint64_t>(grow_backoff_ * 2, kGrowBackoffMax);
  grow_retry_in_ = grow_backoff_;
  telemetry_->on_resize_defer();
}

void DynamicHashDemuxer::migrate_batch(std::size_t budget) {
  if (old_ == nullptr) return;
  OldBuckets& old = *old_;
  std::size_t moved = 0;
  std::size_t scanned = 0;
  const std::size_t scan_budget = budget * kMigrateScanFactor;
  while (moved < budget && old.residents > 0) {
    Bucket& ob = old.buckets[old.cursor];
    if (ob.list.empty()) {
      ++old.cursor;
      if (++scanned >= scan_budget) break;
      continue;
    }
    // Nothing is ever inserted into the old array, so the cache can only
    // reference old residents; draining the bucket retires it.
    ob.cache = nullptr;
    Pcb* pcb = ob.list.extract_front();
    buckets_[chain_of(pcb->key)].list.adopt_front(pcb);
    --old.residents;
    ++moved;
  }
  telemetry_->on_resize_step(moved, old.residents);
  if (old.residents == 0) {
    old_.reset();
    telemetry_->on_resize_complete();
  }
}

void DynamicHashDemuxer::finish_migration() {
  while (old_ != nullptr) migrate_batch(old_->residents + 1);
}

bool DynamicHashDemuxer::migration_step() {
  migrate_batch(kMigrateBatch);
  return old_ != nullptr;
}

Pcb* DynamicHashDemuxer::insert(const net::FlowKey& key) {
  if (buckets_[chain_of(key)].list.find_scan(key).pcb != nullptr) {
    return nullptr;
  }
  if (old_ != nullptr &&
      old_->buckets[old_chain_of(key)].list.find_scan(key).pcb != nullptr) {
    return nullptr;
  }
  if (options_.max_pcbs != 0 && size_ >= options_.max_pcbs) {
    ++inserts_shed_;
    telemetry_->on_shed();
    return nullptr;
  }
  if (insert_refused()) return nullptr;
  // Ladder rung 2: growth is allocation-blocked and mean load has reached
  // twice the growth trigger — shed rather than let chains degrade toward
  // the linear scan the paper set out to kill. The refused attempt still
  // runs maybe_grow() first: at this load the growth trigger is long
  // past, so each shed burns down the backoff and eventually retries the
  // doubling. Without it a table wedged at the watermark would stay
  // blocked forever (no insert succeeds, so the post-insert maybe_grow
  // below never runs again).
  if (grow_blocked_ &&
      static_cast<double>(size_ + 1) >
          2.0 * options_.max_load * static_cast<double>(buckets_.size())) {
    maybe_grow();
    if (grow_blocked_) {
      ++inserts_shed_;
      telemetry_->on_shed();
      return nullptr;
    }
  }
  Bucket& b = buckets_[chain_of(key)];
  Pcb* pcb = b.list.emplace_front(key, next_conn_id());
  ++size_;
  telemetry_->on_insert();
  watermark_ = std::max<std::uint64_t>(watermark_, b.list.size());
  maybe_grow();
  if (old_ != nullptr) [[unlikely]] migrate_batch(kMigrateBatch);
  return pcb;
}

ResilienceStats DynamicHashDemuxer::resilience() const {
  return {0, inserts_shed_, watermark_, watermark_limit()};
}

bool DynamicHashDemuxer::erase(const net::FlowKey& key) {
  Bucket& b = buckets_[chain_of(key)];
  const auto scan = b.list.find_scan(key);
  if (scan.pcb != nullptr) {
    if (b.cache == scan.pcb) b.cache = nullptr;
    b.list.erase(scan.pcb);
  } else {
    if (old_ == nullptr) return false;
    Bucket& ob = old_->buckets[old_chain_of(key)];
    const auto old_scan = ob.list.find_scan(key);
    if (old_scan.pcb == nullptr) return false;
    if (ob.cache == old_scan.pcb) ob.cache = nullptr;
    ob.list.erase(old_scan.pcb);
    if (--old_->residents == 0) {
      old_.reset();
      telemetry_->on_resize_complete();
    }
  }
  --size_;
  telemetry_->on_erase();
  if (old_ != nullptr) [[unlikely]] migrate_batch(kMigrateBatch);
  return true;
}

LookupResult DynamicHashDemuxer::lookup(const net::FlowKey& key,
                                        SegmentKind /*kind*/) {
  Bucket& b = buckets_[chain_of(key)];
  LookupResult r;
  if (options_.per_chain_cache && b.cache != nullptr) {
    ++r.examined;
    if (b.cache->key == key) {
      r.pcb = b.cache;
      r.cache_hit = true;
      note_lookup(r);
      return r;
    }
  }
  const auto scan = b.list.find_scan(key);
  r.examined += scan.examined;
  r.pcb = scan.pcb;
  if (options_.per_chain_cache && scan.pcb != nullptr) b.cache = scan.pcb;
  if (r.pcb == nullptr && old_ != nullptr) [[unlikely]] {
    // Mid-migration a PCB may still sit on its outgoing chain; both
    // scans' examined counts are charged (the paper's metric counts every
    // PCB compared, whichever array holds it).
    Bucket& ob = old_->buckets[old_chain_of(key)];
    const auto old_scan = ob.list.find_scan(key);
    r.examined += old_scan.examined;
    r.pcb = old_scan.pcb;
    if (options_.per_chain_cache && old_scan.pcb != nullptr) {
      ob.cache = old_scan.pcb;
    }
  }
  note_lookup(r);
  if (old_ != nullptr) [[unlikely]] migrate_batch(kMigrateLookupBatch);
  return r;
}

LookupResult DynamicHashDemuxer::lookup_wildcard(const net::FlowKey& key) {
  // The key's home buckets first — live, then outgoing while a migration
  // drains — so an exact match (score 0, unbeatable) costs its home chain
  // and SocketTable::find/erase stay O(chain). Wildcard-bearing PCBs hash
  // elsewhere, so only a miss there sweeps the remaining buckets.
  LookupResult best;
  int best_score = -1;
  const auto scan = [&](Bucket& b) {
    const auto s = b.list.find_best_match(key);
    best.examined += s.examined;
    if (s.pcb == nullptr) return false;
    const int score = s.pcb->key.match_score(key);
    if (score == 0) {
      best.pcb = s.pcb;
      return true;
    }
    if (best_score < 0 || score < best_score) {
      best_score = score;
      best.pcb = s.pcb;
    }
    return false;
  };
  const auto sweep = [&](std::vector<Bucket>& buckets, std::uint32_t home) {
    for (std::uint32_t i = 0; i < buckets.size(); ++i) {
      if (i != home && scan(buckets[i])) return true;
    }
    return false;
  };
  const std::uint32_t home = chain_of(key);
  if (scan(buckets_[home])) return best;
  const std::uint32_t old_home = old_ == nullptr ? 0 : old_chain_of(key);
  if (old_ != nullptr && scan(old_->buckets[old_home])) return best;
  if (sweep(buckets_, home)) return best;
  if (old_ != nullptr) sweep(old_->buckets, old_home);
  return best;
}

void DynamicHashDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  for (const Bucket& b : buckets_) {
    b.list.for_each(fn);
  }
  if (old_ == nullptr) return;
  for (const Bucket& b : old_->buckets) {
    b.list.for_each(fn);
  }
}

std::string DynamicHashDemuxer::name() const {
  std::string n = "dynamic(h=";
  n += std::to_string(buckets_.size());
  n += ',';
  n += net::hash_spec_name(options_.hasher);
  if (options_.max_pcbs != 0) n += ",max=" + std::to_string(options_.max_pcbs);
  if (options_.incremental) n += ",incremental";
  n += ')';
  return n;
}

}  // namespace tcpdemux::core
