#include "core/flat_demuxer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <utility>

#include "core/fault_inject.h"
#include "core/prefetch.h"
#include "core/resize_policy.h"
#include "core/simd.h"

namespace tcpdemux::core {
namespace {

constexpr std::size_t round_up_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlatDemuxer::FlatDemuxer(Options options) : options_(options) {
  if (options_.initial_capacity == 0) {
    throw std::invalid_argument("FlatDemuxer: capacity must be >= 1");
  }
  const std::size_t capacity =
      round_up_pow2(std::max(options_.initial_capacity, kMinCapacity));
  mask_ = capacity - 1;
  tags_ = Tags(capacity);
  hashes_ = Words(capacity);
  index_ = Words(capacity);
}

FlatDemuxer::Probe FlatDemuxer::find_slot(
    std::uint32_t h, const net::FlowKey& key) const noexcept {
  if (options_.group_probe) return find_slot_grouped(h, key);
  Probe r;
  const std::uint8_t tag = tag_of(h);
  std::size_t i = h & mask_;
  std::size_t dist = 0;
  while (dist <= mask_) {
    const std::uint8_t t = tags_[i];
    if (t == 0) return r;  // empty slot terminates the probe run
    if (t == tag) {
      ++r.examined;
      if (key_at(index_[i]) == key) {
        r.slot = i;
        return r;
      }
    }
    // Robin-hood bound: residents are ordered by displacement, so a
    // resident closer to its own home than we are to ours proves the key
    // was never placed at or beyond this slot.
    if (probe_distance(i) < dist) return r;
    i = (i + 1) & mask_;
    ++dist;
  }
  return r;  // unreachable in a well-formed table (load factor < 1)
}

FlatDemuxer::Probe FlatDemuxer::find_slot_grouped(
    std::uint32_t h, const net::FlowKey& key) const noexcept {
  Probe r;
  const std::uint8_t tag = tag_of(h);
  const std::size_t home = h & mask_;
  std::size_t base = home & ~(kGroupWidth - 1);
  // The home group starts mid-run: slots before `home` belong to earlier
  // probe runs, so mask them out of both the match and empty views.
  std::uint32_t live = 0xffffU << (home - base);
  const std::size_t groups = capacity() / kGroupWidth;
  for (std::size_t g = 0; g < groups; ++g) {
    std::uint32_t match = group_match(&tags_[base], tag) & live;
    const std::uint32_t empty = group_empty(&tags_[base]) & live;
    if (empty != 0) {
      // The probe run ends at the first empty slot; fingerprint matches
      // beyond it are residents of later runs and cannot be our key.
      match &= (empty & (0U - empty)) - 1;
    }
    while (match != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(match));
      ++r.examined;
      if (key_at(index_[base + bit]) == key) {
        r.slot = base + bit;
        return r;
      }
      match &= match - 1;
    }
    if (empty != 0) return r;  // run exhausted without a key match: absent
    base = (base + kGroupWidth) & mask_;
    live = 0xffffU;
  }
  return r;  // unreachable: load factor < 1 guarantees an empty slot
}

Pcb* FlatDemuxer::insert(const net::FlowKey& key) {
  std::uint32_t h = hash_of(key);
  if (find_slot(h, key).slot != kNpos) return nullptr;
  if (old_ != nullptr && find_slot_old(h, key).slot != kNpos) return nullptr;
  if (options_.max_pcbs != 0 && size_ >= options_.max_pcbs) {
    ++inserts_shed_;
    telemetry_->on_shed();
    return nullptr;
  }
  // The PCB's cell is the insert's own allocation: secure it before any
  // mutation so a refusal (injected, or the kernel declining a chunk)
  // leaves the table exactly as it was.
  if (FaultInjector::instance().poll_alloc() || !slab_.reserve_one()) {
    ++inserts_refused_;
    telemetry_->on_refuse();
    return nullptr;
  }
  maybe_grow();
  // Ladder rung 2: growth is allocation-blocked and the array has hit its
  // hard 15/16 watermark — shed rather than let probe runs degrade
  // unboundedly toward a full table.
  if (grow_blocked_ && (size_ + 1) * 16 > capacity() * 15) {
    ++inserts_shed_;
    telemetry_->on_shed();
    return nullptr;
  }
  const std::uint32_t index = slab_.allocate(key, next_conn_id());
  const std::size_t dist = place(h, index);
  ++size_;
  telemetry_->on_insert();
  note_insert(dist);
  if (old_ != nullptr) [[unlikely]] migrate_batch(kMigrateBatch);
  return &slab_.at(index);
}

void FlatDemuxer::maybe_grow() {
  // Grow at 7/8 occupancy: beyond that, probe runs lengthen sharply and
  // the tag array stops saving traffic.
  if ((size_ + 1) * 8 <= capacity() * 7) return;
  if (!options_.incremental) {
    grow();
    return;
  }
  if (old_ != nullptr) {
    // The *new* array itself hit the trigger while the old one still
    // drains: churn outpaced migration. Finish the drain (bounded by the
    // remaining debt), then start the next doubling below.
    finish_migration();
  }
  if (grow_blocked_ && grow_retry_in_ > 0) {
    --grow_retry_in_;
    return;
  }
  start_migration();
}

bool FlatDemuxer::start_migration() {
  if (FaultInjector::instance().poll_alloc()) {
    defer_migration();
    return false;
  }
  const std::size_t cap = capacity() * 2;
  std::unique_ptr<OldTable> old;
  Tags tags;
  Words hashes;
  Words index;
  try {
    old = std::make_unique<OldTable>();
    tags = Tags(cap);
    hashes = Words(cap);
    index = Words(cap);
  } catch (const std::bad_alloc&) {
    defer_migration();
    return false;
  }
  // Everything allocated: swing the live array behind the drain cursor.
  // No failure path from here on, so no intermediate state can leak.
  old->mask = mask_;
  old->residents = size_;
  old->tags = std::move(tags_);
  old->hashes = std::move(hashes_);
  old->index = std::move(index_);
  old_ = std::move(old);
  mask_ = cap - 1;
  tags_ = std::move(tags);
  hashes_ = std::move(hashes);
  index_ = std::move(index);
  grow_blocked_ = false;
  grow_backoff_ = 0;
  grow_retry_in_ = 0;
  telemetry_->on_resize_start();
  return true;
}

void FlatDemuxer::defer_migration() {
  grow_blocked_ = true;
  grow_backoff_ =
      grow_backoff_ == 0
          ? kGrowBackoffMin
          : std::min<std::uint64_t>(grow_backoff_ * 2, kGrowBackoffMax);
  grow_retry_in_ = grow_backoff_;
  telemetry_->on_resize_defer();
}

void FlatDemuxer::migrate_batch(std::size_t budget) {
  if (old_ == nullptr) return;
  OldTable& old = *old_;
  std::size_t moved = 0;
  std::size_t scanned = 0;
  const std::size_t scan_budget = budget * kMigrateScanFactor;
  while (moved < budget && old.residents > 0) {
    // residents > 0 guarantees an occupied slot at or past the cursor:
    // nothing is ever placed into the old array, and backward-shift only
    // vacates slots, so the drained prefix [0, cursor) never refills.
    if (old.tags[old.cursor] == 0) {
      ++old.cursor;
      if (++scanned >= scan_budget) break;
      continue;
    }
    const std::size_t i = old.cursor;
    // Copy-place into the new array first, then clear the old slot; the
    // old array stays intact up to the moment the entry is live in the
    // new one. Placement into the preallocated array cannot allocate.
    place(old.hashes[i], old.index[i]);
    remove_at_old(i);
    --old.residents;
    ++moved;
  }
  telemetry_->on_resize_step(moved, old.residents);
  if (old.residents == 0) {
    old_.reset();
    telemetry_->on_resize_complete();
  }
}

void FlatDemuxer::finish_migration() {
  while (old_ != nullptr) migrate_batch(old_->residents + 1);
}

bool FlatDemuxer::migration_step() {
  migrate_batch(kMigrateBatch);
  return old_ != nullptr;
}

FlatDemuxer::Probe FlatDemuxer::find_slot_old(
    std::uint32_t h, const net::FlowKey& key) const noexcept {
  const OldTable& old = *old_;
  Probe r;
  const std::uint8_t tag = tag_of(h);
  std::size_t i = h & old.mask;
  std::size_t dist = 0;
  while (dist <= old.mask) {
    const std::uint8_t t = old.tags[i];
    if (t == 0) return r;
    if (t == tag) {
      ++r.examined;
      if (key_at(old.index[i]) == key) {
        r.slot = i;
        return r;
      }
    }
    if (old.probe_distance(i) < dist) return r;
    i = (i + 1) & old.mask;
    ++dist;
  }
  return r;
}

void FlatDemuxer::remove_at_old(std::size_t i) {
  OldTable& old = *old_;
  std::size_t j = i;
  while (true) {
    const std::size_t n = (j + 1) & old.mask;
    if (old.tags[n] == 0 || old.probe_distance(n) == 0) break;
    old.tags[j] = old.tags[n];
    old.hashes[j] = old.hashes[n];
    old.index[j] = old.index[n];
    j = n;
  }
  old.tags[j] = 0;
}

std::size_t FlatDemuxer::place(std::uint32_t h, std::uint32_t index) {
  std::size_t i = h & mask_;
  std::size_t dist = 0;
  std::size_t max_dist = 0;
  while (tags_[i] != 0) {
    const std::size_t d = probe_distance(i);
    if (d < dist) {
      // Rob the rich: the resident is closer to home than we are, so it
      // can better afford the longer walk. Swap and keep placing it.
      std::swap(h, hashes_[i]);
      std::swap(index, index_[i]);
      tags_[i] = tag_of(hashes_[i]);
      dist = d;
    }
    i = (i + 1) & mask_;
    ++dist;
    max_dist = std::max(max_dist, dist);
  }
  tags_[i] = tag_of(h);
  hashes_[i] = h;
  index_[i] = index;
  return max_dist;
}

void FlatDemuxer::note_insert(std::size_t place_distance) {
  watermark_ = std::max<std::uint64_t>(watermark_, place_distance);
  ++inserts_since_rehash_;
  if (options_.rehash_on_overload && watermark_ > watermark_limit() &&
      inserts_since_rehash_ >= rehash_cooldown_) {
    rehash_with_fresh_seed();
  }
}

void FlatDemuxer::rehash_with_fresh_seed() {
  // The old array's stored hashes were computed under the outgoing seed;
  // re-probing it after rotation would miss every resident. Drain it
  // first (rare: requires an overload trigger mid-migration).
  finish_migration();
  options_.hasher.seed = net::next_seed(options_.hasher.seed);
  const std::size_t cap = capacity();
  const Tags old_tags = std::move(tags_);
  const Words old_index = std::move(index_);
  tags_ = Tags(cap);
  hashes_ = Words(cap);
  index_ = Words(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    if (old_tags[i] == 0) continue;
    // Hashes must be recomputed: the seed just changed.
    place(hash_of(key_at(old_index[i])), old_index[i]);
  }
  watermark_ = max_probe_distance();
  ++overload_rehashes_;
  telemetry_->on_rehash();
  inserts_since_rehash_ = 0;
  // Hysteresis: even if every key collides under every seed (full-32-bit
  // collisions survive the seeded post-mix of non-SipHash kinds), at most
  // one rehash per `limit` further inserts — bounded thrash.
  rehash_cooldown_ = watermark_limit();
}

ResilienceStats FlatDemuxer::resilience() const {
  return {overload_rehashes_, inserts_shed_, watermark_, watermark_limit(),
          inserts_refused_};
}

bool FlatDemuxer::erase(const net::FlowKey& key) {
  const std::uint32_t h = hash_of(key);
  const Probe p = find_slot(h, key);
  std::uint32_t index = 0;
  if (p.slot != kNpos) {
    index = index_[p.slot];
    remove_at(p.slot);
  } else {
    if (old_ == nullptr) return false;
    const Probe q = find_slot_old(h, key);
    if (q.slot == kNpos) return false;
    index = old_->index[q.slot];
    remove_at_old(q.slot);
    if (--old_->residents == 0) {
      old_.reset();
      telemetry_->on_resize_complete();
    }
  }
  slab_.release(index);
  --size_;
  telemetry_->on_erase();
  if (old_ != nullptr) [[unlikely]] migrate_batch(kMigrateBatch);
  return true;
}

void FlatDemuxer::remove_at(std::size_t i) {
  // Backward shift: slide the rest of the probe run down one slot so no
  // tombstone is needed. The run ends at an empty slot or a resident
  // already sitting in its home slot (which a shift would only hurt).
  std::size_t j = i;
  while (true) {
    const std::size_t n = (j + 1) & mask_;
    if (tags_[n] == 0 || probe_distance(n) == 0) break;
    tags_[j] = tags_[n];
    hashes_[j] = hashes_[n];
    index_[j] = index_[n];
    j = n;
  }
  tags_[j] = 0;
}

void FlatDemuxer::grow() {
  const std::size_t old_capacity = capacity();
  const Tags old_tags = std::move(tags_);
  const Words old_hashes = std::move(hashes_);
  const Words old_index = std::move(index_);

  const std::size_t capacity = old_capacity * 2;
  mask_ = capacity - 1;
  tags_ = Tags(capacity);
  hashes_ = Words(capacity);
  index_ = Words(capacity);

  for (std::size_t i = 0; i < old_capacity; ++i) {
    if (old_tags[i] == 0) continue;
    place(old_hashes[i], old_index[i]);
  }
}

void FlatDemuxer::prefetch(const net::FlowKey& key) const noexcept {
  const std::size_t home = hash_of(key) & mask_;
  prefetch_read(&tags_[home]);
  prefetch_read(&index_[home]);
}

LookupResult FlatDemuxer::lookup(const net::FlowKey& key,
                                 SegmentKind /*kind*/) {
  const std::uint32_t h = hash_of(key);
  // The index line is the second load of a hit; issue it now so it
  // overlaps the tag-group load instead of following it.
  prefetch_read(&index_[h & mask_]);
  const Probe p = find_slot(h, key);
  LookupResult r;
  r.examined = p.examined;
  if (p.slot != kNpos) {
    r.pcb = &slab_.at(index_[p.slot]);
  } else if (old_ != nullptr) [[unlikely]] {
    // Mid-migration a resident may still sit in the draining array; both
    // probes' examined counts are charged (the paper's metric counts every
    // key compared, whichever array holds it).
    const Probe q = find_slot_old(h, key);
    r.examined += q.examined;
    if (q.slot != kNpos) r.pcb = &slab_.at(old_->index[q.slot]);
  }
  note_lookup(r);
  if (old_ != nullptr) [[unlikely]] migrate_batch(kMigrateLookupBatch);
  return r;
}

void FlatDemuxer::lookup_batch(std::span<const net::FlowKey> keys,
                               std::span<LookupResult> results,
                               SegmentKind kind) {
  if (old_ != nullptr) [[unlikely]] {
    // Mid-migration the pipelined prefetch would have to target both
    // arrays; take the scalar path, which also paces the drain (one
    // migrated entry per lookup). Results and stats stay bit-identical
    // to per-packet lookup() by construction.
    for (std::size_t i = 0; i < keys.size(); ++i) {
      results[i] = lookup(keys[i], kind);
    }
    return;
  }
  // Pipeline: hash the whole chunk and prefetch every home slot's tag and
  // index lines, then probe. By the time the first probe dereferences its
  // slot the remaining loads are already in flight, so a burst pays ~one
  // DRAM latency for them instead of one per packet. (A middle stage that
  // also prefetched each home slot's PCB measured no clear gain at 2M
  // PCBs and cost ~15% at 2k.)
  constexpr std::size_t kChunk = 16;
  std::array<std::uint32_t, kChunk> h;
  for (std::size_t base = 0; base < keys.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, keys.size() - base);
    for (std::size_t i = 0; i < n; ++i) {
      h[i] = hash_of(keys[base + i]);
      const std::size_t home = h[i] & mask_;
      prefetch_read(&tags_[home]);
      prefetch_read(&index_[home]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Probe p = find_slot(h[i], keys[base + i]);
      LookupResult r;
      r.examined = p.examined;
      if (p.slot != kNpos) r.pcb = &slab_.at(index_[p.slot]);
      note_lookup(r);
      results[base + i] = r;
    }
  }
}

LookupResult FlatDemuxer::lookup_wildcard(const net::FlowKey& key) {
  // Exact probe first (cheap), then BSD best-match over every resident:
  // wildcard-bearing keys hash elsewhere, so nothing short of a sweep can
  // find them — exactly the chained demuxers' all-chains fallback. Both
  // arrays are probed and swept while a migration drains.
  const std::uint32_t h = hash_of(key);
  const Probe p = find_slot(h, key);
  LookupResult best;
  best.examined = p.examined;
  if (p.slot != kNpos) {
    best.pcb = &slab_.at(index_[p.slot]);
    return best;
  }
  if (old_ != nullptr) {
    const Probe q = find_slot_old(h, key);
    best.examined += q.examined;
    if (q.slot != kNpos) {
      best.pcb = &slab_.at(old_->index[q.slot]);
      return best;
    }
  }
  int best_score = -1;
  const auto sweep = [&](const Tags& tags, const Words& table_index) {
    for (std::size_t i = 0; i < tags.size(); ++i) {
      if (tags[i] == 0) continue;
      ++best.examined;
      Pcb& pcb = slab_.at(table_index[i]);
      const int score = pcb.key.match_score(key);
      if (score < 0) continue;
      if (score == 0) {
        best.pcb = &pcb;
        return true;
      }
      if (best_score < 0 || score < best_score) {
        best_score = score;
        best.pcb = &pcb;
      }
    }
    return false;
  };
  if (sweep(tags_, index_)) return best;
  if (old_ != nullptr) sweep(old_->tags, old_->index);
  return best;
}

void FlatDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  for (std::size_t i = 0; i <= mask_; ++i) {
    if (tags_[i] != 0) fn(slab_.at(index_[i]));
  }
  if (old_ == nullptr) return;
  for (std::size_t i = 0; i <= old_->mask; ++i) {
    if (old_->tags[i] != 0) fn(slab_.at(old_->index[i]));
  }
}

std::size_t FlatDemuxer::max_probe_distance() const noexcept {
  std::size_t max = 0;
  for (std::size_t i = 0; i <= mask_; ++i) {
    if (tags_[i] != 0) max = std::max(max, probe_distance(i));
  }
  if (old_ != nullptr) {
    for (std::size_t i = 0; i <= old_->mask; ++i) {
      if (old_->tags[i] != 0) max = std::max(max, old_->probe_distance(i));
    }
  }
  return max;
}

std::vector<std::size_t> FlatDemuxer::occupancy() const {
  std::vector<std::size_t> runs;
  if (size_ == 0) return runs;
  // Start at an empty slot so a run wrapping the table end is not split
  // in two; a full table is one run. During a migration the old array's
  // runs are appended after the live array's, so the total still sums to
  // size() and skew reflects both generations.
  const auto append_runs = [&runs](const Tags& tags, std::size_t mask) {
    const std::size_t cap = mask + 1;
    std::size_t start = 0;
    while (start < cap && tags[start] != 0) ++start;
    if (start == cap) {
      runs.push_back(cap);
      return;
    }
    std::size_t run = 0;
    for (std::size_t n = 0; n < cap; ++n) {
      const std::size_t i = (start + n) & mask;
      if (tags[i] != 0) {
        ++run;
      } else if (run != 0) {
        runs.push_back(run);
        run = 0;
      }
    }
    if (run != 0) runs.push_back(run);
  };
  append_runs(tags_, mask_);
  if (old_ != nullptr) append_runs(old_->tags, old_->mask);
  return runs;
}

std::size_t FlatDemuxer::memory_bytes() const {
  // Tag, hash, and PCB index: 9 B/slot, paid up front. PCBs are priced
  // up to the slab's high-water mark — freed cells awaiting reuse are
  // resident too — but not the mapped, never-touched tail of a chunk.
  constexpr std::size_t kPerSlot =
      sizeof(std::uint8_t) + sizeof(std::uint32_t) + sizeof(std::uint32_t);
  std::size_t bytes = slab_.bytes_used() + sizeof(*this) +
                      capacity() * kPerSlot;
  if (old_ != nullptr) {
    bytes += sizeof(OldTable) + old_->capacity() * kPerSlot;
  }
  return bytes;
}

std::string FlatDemuxer::name() const {
  std::string n = options_.group_probe ? "flat16(cap=" : "flat(cap=";
  n += std::to_string(capacity());
  n += ',';
  n += net::hash_spec_name(options_.hasher);
  if (options_.rehash_on_overload) n += ",rehash";
  if (options_.max_pcbs != 0) n += ",max=" + std::to_string(options_.max_pcbs);
  if (options_.incremental) n += ",incremental";
  n += ')';
  return n;
}

}  // namespace tcpdemux::core
