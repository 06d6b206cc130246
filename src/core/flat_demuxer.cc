#include "core/flat_demuxer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <initializer_list>
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
  live_ = Slots(
      round_up_pow2(std::max(options_.initial_capacity, kMinCapacity)));
}

FlatDemuxer::Probe FlatDemuxer::find_slot(
    const Slots& slots, std::uint32_t h,
    const net::FlowKey& key) const noexcept {
  Probe r;
  const std::uint8_t tag = tag_of(h);
  const std::size_t home = h & slots.mask;
  std::size_t base = home & ~(kGroupWidth - 1);
  // The home group starts mid-run: slots before `home` belong to earlier
  // probe runs, so mask them out of both the match and empty views.
  std::uint32_t in_run = 0xffffU << (home - base);
  const std::size_t groups = slots.capacity() / kGroupWidth;
  for (std::size_t g = 0; g < groups; ++g) {
    std::uint32_t match = group_match(&slots.tags[base], tag) & in_run;
    const std::uint32_t empty = group_empty(&slots.tags[base]) & in_run;
    if (empty != 0) {
      // The probe run ends at the first empty slot; fingerprint matches
      // beyond it are residents of later runs and cannot be our key.
      match &= (empty & (0U - empty)) - 1;
    }
    while (match != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(match));
      ++r.examined;
      if (key_at(slots.index[base + bit]) == key) {
        r.slot = base + bit;
        return r;
      }
      match &= match - 1;
    }
    if (empty != 0) return r;  // run exhausted without a key match: absent
    base = (base + kGroupWidth) & slots.mask;
    in_run = 0xffffU;
  }
  return r;  // unreachable: load factor < 1 guarantees an empty slot
}

FlatDemuxer::Found FlatDemuxer::locate(std::uint32_t h,
                                       const net::FlowKey& key) noexcept {
  const Probe p = find_slot(live_, h, key);
  if (p.slot != kNpos) return {&live_, p.slot, p.examined};
  if (!migrating()) [[likely]] return {nullptr, kNpos, p.examined};
  const Probe q = find_slot(old_, h, key);
  return {q.slot != kNpos ? &old_ : nullptr, q.slot, p.examined + q.examined};
}

Pcb* FlatDemuxer::insert(const net::FlowKey& key) {
  const std::uint32_t h = hash_of(key);
  if (locate(h, key).slots != nullptr) return nullptr;
  if (options_.max_pcbs != 0 && size_ >= options_.max_pcbs) {
    ++inserts_shed_;
    telemetry_->on_shed();
    return nullptr;
  }
  // The PCB's cell is the insert's own allocation: secure it before any
  // mutation so a refusal (injected, or the kernel declining a chunk)
  // leaves the table exactly as it was.
  if (insert_refused([this] { return slab_.reserve_one(); })) {
    ++inserts_refused_;
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
  const std::size_t dist = live_.place(h, index);
  ++size_;
  telemetry_->on_insert();
  note_insert(dist);
  if (migrating()) [[unlikely]] migrate_batch(kMigrateBatch);
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
  if (migrating()) {
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
  Slots doubled;
  try {
    doubled = Slots(capacity() * 2);
  } catch (const std::bad_alloc&) {
    defer_migration();
    return false;
  }
  // Everything allocated: swing the live array behind the drain cursor.
  // No failure path from here on, so no intermediate state can leak.
  old_ = std::exchange(live_, std::move(doubled));
  old_cursor_ = 0;
  old_residents_ = size_;
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
  if (!migrating()) return;
  std::size_t moved = 0;
  std::size_t scanned = 0;
  const std::size_t scan_budget = budget * kMigrateScanFactor;
  while (moved < budget && old_residents_ > 0) {
    // residents > 0 guarantees an occupied slot at or past the cursor:
    // nothing is ever placed into the old array, and backward-shift only
    // vacates slots, so the drained prefix [0, cursor) never refills.
    const std::size_t i = old_cursor_;
    if (old_.tags[i] == 0) {
      ++old_cursor_;
      if (++scanned >= scan_budget) break;
      continue;
    }
    // Copy-place into the new array first, then clear the old slot; the
    // old array stays intact up to the moment the entry is live in the
    // new one. Placement into the preallocated array cannot allocate.
    live_.place(old_.hashes[i], old_.index[i]);
    old_.remove_at(i);
    --old_residents_;
    ++moved;
  }
  telemetry_->on_resize_step(moved, old_residents_);
  if (old_residents_ == 0) end_migration();
}

void FlatDemuxer::end_migration() {
  old_ = Slots();
  old_cursor_ = 0;
  telemetry_->on_resize_complete();
}

void FlatDemuxer::finish_migration() {
  while (migrating()) migrate_batch(old_residents_ + 1);
}

bool FlatDemuxer::migration_step() {
  migrate_batch(kMigrateBatch);
  return migrating();
}

std::size_t FlatDemuxer::Slots::place(std::uint32_t h,
                                      std::uint32_t pcb_index) noexcept {
  std::size_t i = h & mask;
  std::size_t dist = 0;
  std::size_t max_dist = 0;
  while (tags[i] != 0) {
    const std::size_t d = probe_distance(i);
    if (d < dist) {
      // Rob the rich: the resident is closer to home than we are, so it
      // can better afford the longer walk. Swap and keep placing it.
      std::swap(h, hashes[i]);
      std::swap(pcb_index, index[i]);
      tags[i] = tag_of(hashes[i]);
      dist = d;
    }
    i = (i + 1) & mask;
    ++dist;
    max_dist = std::max(max_dist, dist);
  }
  tags[i] = tag_of(h);
  hashes[i] = h;
  index[i] = pcb_index;
  return max_dist;
}

void FlatDemuxer::Slots::remove_at(std::size_t i) noexcept {
  // Backward shift: slide the rest of the probe run down one slot so no
  // tombstone is needed. The run ends at an empty slot or a resident
  // already sitting in its home slot (which a shift would only hurt).
  std::size_t j = i;
  while (true) {
    const std::size_t n = (j + 1) & mask;
    if (tags[n] == 0 || probe_distance(n) == 0) break;
    tags[j] = tags[n];
    hashes[j] = hashes[n];
    index[j] = index[n];
    j = n;
  }
  tags[j] = 0;
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
  const Slots prev = std::exchange(live_, Slots(capacity()));
  for (std::size_t i = 0; i < prev.capacity(); ++i) {
    if (prev.tags[i] == 0) continue;
    // Hashes must be recomputed: the seed just changed.
    live_.place(hash_of(key_at(prev.index[i])), prev.index[i]);
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
  const Found f = locate(hash_of(key), key);
  if (f.slots == nullptr) return false;
  const std::uint32_t index = f.slots->index[f.slot];
  f.slots->remove_at(f.slot);
  if (f.slots == &old_ && --old_residents_ == 0) end_migration();
  slab_.release(index);
  --size_;
  telemetry_->on_erase();
  if (migrating()) [[unlikely]] migrate_batch(kMigrateBatch);
  return true;
}

void FlatDemuxer::grow() {
  const Slots prev = std::exchange(live_, Slots(capacity() * 2));
  for (std::size_t i = 0; i < prev.capacity(); ++i) {
    if (prev.tags[i] != 0) live_.place(prev.hashes[i], prev.index[i]);
  }
}

void FlatDemuxer::prefetch(const net::FlowKey& key) const noexcept {
  const std::size_t home = hash_of(key) & live_.mask;
  prefetch_read(&live_.tags[home]);
  prefetch_read(&live_.index[home]);
}

LookupResult FlatDemuxer::lookup(const net::FlowKey& key,
                                 SegmentKind /*kind*/) {
  const std::uint32_t h = hash_of(key);
  // The index line is the second load of a hit; issue it now so it
  // overlaps the tag-group load instead of following it.
  prefetch_read(&live_.index[h & live_.mask]);
  const Found f = locate(h, key);
  LookupResult r;
  r.examined = f.examined;
  if (f.slots != nullptr) r.pcb = &slab_.at(f.slots->index[f.slot]);
  note_lookup(r);
  if (migrating()) [[unlikely]] migrate_batch(kMigrateLookupBatch);
  return r;
}

void FlatDemuxer::lookup_batch(std::span<const net::FlowKey> keys,
                               std::span<LookupResult> results,
                               SegmentKind kind) {
  if (migrating()) [[unlikely]] {
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
      const std::size_t home = h[i] & live_.mask;
      prefetch_read(&live_.tags[home]);
      prefetch_read(&live_.index[home]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Probe p = find_slot(live_, h[i], keys[base + i]);
      LookupResult r;
      r.examined = p.examined;
      if (p.slot != kNpos) r.pcb = &slab_.at(live_.index[p.slot]);
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
  const Found f = locate(hash_of(key), key);
  LookupResult best;
  best.examined = f.examined;
  if (f.slots != nullptr) {
    best.pcb = &slab_.at(f.slots->index[f.slot]);
    return best;
  }
  int best_score = -1;
  for (const Slots* slots : {&live_, &old_}) {
    for (std::size_t i = 0; i < slots->capacity(); ++i) {
      if (slots->tags[i] == 0) continue;
      ++best.examined;
      Pcb& pcb = slab_.at(slots->index[i]);
      const int score = pcb.key.match_score(key);
      if (score < 0) continue;
      if (score == 0) {
        best.pcb = &pcb;
        return best;
      }
      if (best_score < 0 || score < best_score) {
        best_score = score;
        best.pcb = &pcb;
      }
    }
  }
  return best;
}

void FlatDemuxer::for_each_pcb(
    const std::function<void(const Pcb&)>& fn) const {
  for (const Slots* slots : {&live_, &old_}) {
    for (std::size_t i = 0; i < slots->capacity(); ++i) {
      if (slots->tags[i] != 0) fn(slab_.at(slots->index[i]));
    }
  }
}

std::size_t FlatDemuxer::max_probe_distance() const noexcept {
  std::size_t max = 0;
  for (const Slots* slots : {&live_, &old_}) {
    for (std::size_t i = 0; i < slots->capacity(); ++i) {
      if (slots->tags[i] != 0) max = std::max(max, slots->probe_distance(i));
    }
  }
  return max;
}

std::vector<std::size_t> FlatDemuxer::occupancy() const {
  // Start at an empty slot so a run wrapping the array end is not split
  // in two; a full array is one run. During a migration the old array's
  // runs are appended after the live array's, so the total still sums to
  // size() and skew reflects both generations.
  std::vector<std::size_t> runs;
  for (const Slots* slots : {&live_, &old_}) {
    const std::size_t cap = slots->capacity();
    std::size_t start = 0;
    while (start < cap && slots->tags[start] != 0) ++start;
    std::size_t run = 0;
    for (std::size_t n = 0; n < cap; ++n) {
      if (slots->tags[(start + n) & slots->mask] != 0) {
        ++run;
      } else if (run != 0) {
        runs.push_back(run);
        run = 0;
      }
    }
    if (run != 0) runs.push_back(run);
  }
  return runs;
}

std::size_t FlatDemuxer::memory_bytes() const {
  // Tag, hash, and PCB index: 9 B/slot, paid up front, for the draining
  // array too. PCBs are priced up to the slab's high-water mark — freed
  // cells awaiting reuse are resident too — but not the mapped,
  // never-touched tail of a chunk.
  constexpr std::size_t kPerSlot =
      sizeof(std::uint8_t) + sizeof(std::uint32_t) + sizeof(std::uint32_t);
  return slab_.bytes_used() + sizeof(*this) +
         (live_.capacity() + old_.capacity()) * kPerSlot;
}

std::string FlatDemuxer::name() const {
  std::string n = "flat16(cap=";
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
