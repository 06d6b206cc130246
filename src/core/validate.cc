#include "core/validate.h"

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/bsd_list.h"
#include "core/connection_id.h"
#include "core/demuxer.h"
#include "core/dynamic_hash.h"
#include "core/flat_demuxer.h"
#include "core/hashed_mtf.h"
#include "core/move_to_front.h"
#include "core/pcb_list.h"
#include "core/rcu_demuxer.h"
#include "core/send_receive_cache.h"
#include "core/sequent_hash.h"
#include "core/sharded_demuxer.h"

namespace tcpdemux::core {
namespace {

// Collector for validation errors with printf-lite formatting via streams.
class Errors {
 public:
  explicit Errors(ValidationReport& report) : report_(report) {}

  template <typename... Parts>
  void add(const Parts&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    report_.errors.push_back(os.str());
  }

 private:
  ValidationReport& report_;
};

// Walks `list` checking doubly-linked consistency, and appends every member
// to `members` (when non-null) for cache/duplicate checks by the caller.
// The cycle guard caps the walk at size()+1 nodes so a corrupted next
// pointer cannot hang the validator.
void check_list(const PcbList& list, const char* what, Errors& errors,
                std::vector<const Pcb*>* members) {
  std::size_t count = 0;
  const Pcb* prev = nullptr;
  for (const Pcb* p = list.head(); p != nullptr; p = p->next) {
    if (count > list.size()) {
      errors.add(what, ": more nodes reachable than size()=", list.size(),
                 " (cycle or lost count)");
      return;
    }
    if (p->prev != prev) {
      errors.add(what, ": node ", count, " (", p->key.to_string(),
                 ") has prev link inconsistent with walk order");
    }
    if (members != nullptr) members->push_back(p);
    prev = p;
    ++count;
  }
  if (count != list.size()) {
    errors.add(what, ": reachable nodes (", count, ") != size() (",
               list.size(), ")");
  }
  if (list.tail() != prev) {
    errors.add(what, ": tail does not point at the last reachable node");
  }
  if (list.head() != nullptr && list.head()->prev != nullptr) {
    errors.add(what, ": head node has non-null prev");
  }
}

// Cache slots must point at a live member of the structure they cache for;
// a stale pointer (freed PCB, or a PCB that migrated elsewhere) is the
// classic intrusive-cache corruption.
void check_cache_member(const Pcb* cache, const char* what,
                        const std::vector<const Pcb*>& members,
                        Errors& errors) {
  if (cache == nullptr) return;
  if (std::find(members.begin(), members.end(), cache) == members.end()) {
    errors.add(what, ": cache points at a PCB that is not a live member");
  }
}

// No PCB may be reachable twice and no two PCBs may share a key; either
// breaks erase() (double free / wrong victim) and the examined-count
// accounting.
void check_unique(const std::vector<const Pcb*>& members, const char* what,
                  Errors& errors) {
  std::unordered_set<const Pcb*> seen;
  std::unordered_set<net::FlowKey> keys;
  for (const Pcb* p : members) {
    if (!seen.insert(p).second) {
      errors.add(what, ": PCB ", p->key.to_string(), " is reachable twice");
    }
    if (!keys.insert(p->key).second) {
      errors.add(what, ": duplicate key ", p->key.to_string());
    }
  }
}

}  // namespace

std::string ValidationReport::to_string() const {
  std::string out;
  for (const std::string& e : errors) {
    if (!out.empty()) out += '\n';
    out += e;
  }
  return out;
}

ValidationReport StructuralValidator::validate(const PcbList& list) {
  ValidationReport report;
  Errors errors(report);
  check_list(list, "pcb_list", errors, nullptr);
  return report;
}

ValidationReport StructuralValidator::validate(const BsdListDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);
  std::vector<const Pcb*> members;
  check_list(demuxer.list_, "bsd", errors, &members);
  check_unique(members, "bsd", errors);
  check_cache_member(demuxer.cache_, "bsd", members, errors);
  return report;
}

ValidationReport StructuralValidator::validate(
    const MoveToFrontDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);
  std::vector<const Pcb*> members;
  check_list(demuxer.list_, "mtf", errors, &members);
  check_unique(members, "mtf", errors);
  return report;
}

ValidationReport StructuralValidator::validate(
    const SendReceiveCacheDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);
  std::vector<const Pcb*> members;
  check_list(demuxer.list_, "srcache", errors, &members);
  check_unique(members, "srcache", errors);
  check_cache_member(demuxer.recv_cache_, "srcache(recv)", members, errors);
  check_cache_member(demuxer.send_cache_, "srcache(send)", members, errors);
  return report;
}

ValidationReport StructuralValidator::validate(const SequentDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);
  std::vector<const Pcb*> all;
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < demuxer.buckets_.size(); ++c) {
    const SequentDemuxer::Bucket& bucket = demuxer.buckets_[c];
    std::vector<const Pcb*> members;
    std::ostringstream what;
    what << "sequent chain " << c;
    check_list(bucket.list, what.str().c_str(), errors, &members);
    for (const Pcb* p : members) {
      if (demuxer.chain_of(p->key) != c) {
        errors.add("sequent: PCB ", p->key.to_string(), " hashes to chain ",
                   demuxer.chain_of(p->key), " but sits on chain ", c);
      }
    }
    if (!demuxer.options_.per_chain_cache && bucket.cache != nullptr) {
      errors.add("sequent chain ", c,
                 ": cache installed but per_chain_cache is disabled");
    }
    check_cache_member(bucket.cache, what.str().c_str(), members, errors);
    total += members.size();
    all.insert(all.end(), members.begin(), members.end());
  }
  if (total != demuxer.size_) {
    errors.add("sequent: chain occupancy total (", total,
               ") != size counter (", demuxer.size_, ")");
  }
  check_unique(all, "sequent", errors);
  return report;
}

ValidationReport StructuralValidator::validate(
    const HashedMtfDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);
  std::vector<const Pcb*> all;
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < demuxer.buckets_.size(); ++c) {
    std::vector<const Pcb*> members;
    std::ostringstream what;
    what << "hashed_mtf chain " << c;
    check_list(demuxer.buckets_[c], what.str().c_str(), errors, &members);
    for (const Pcb* p : members) {
      if (demuxer.chain_of(p->key) != c) {
        errors.add("hashed_mtf: PCB ", p->key.to_string(),
                   " hashes to chain ", demuxer.chain_of(p->key),
                   " but sits on chain ", c);
      }
    }
    total += members.size();
    all.insert(all.end(), members.begin(), members.end());
  }
  if (total != demuxer.size_) {
    errors.add("hashed_mtf: chain occupancy total (", total,
               ") != size counter (", demuxer.size_, ")");
  }
  check_unique(all, "hashed_mtf", errors);
  return report;
}

ValidationReport StructuralValidator::validate(
    const DynamicHashDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);
  if (demuxer.buckets_.empty()) {
    errors.add("dynamic: bucket table is empty");
    return report;
  }
  std::vector<const Pcb*> all;
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < demuxer.buckets_.size(); ++c) {
    const DynamicHashDemuxer::Bucket& bucket = demuxer.buckets_[c];
    std::vector<const Pcb*> members;
    std::ostringstream what;
    what << "dynamic chain " << c;
    check_list(bucket.list, what.str().c_str(), errors, &members);
    for (const Pcb* p : members) {
      if (demuxer.chain_of(p->key) != c) {
        errors.add("dynamic: PCB ", p->key.to_string(), " hashes to chain ",
                   demuxer.chain_of(p->key), " but sits on chain ", c);
      }
    }
    if (!demuxer.options_.per_chain_cache && bucket.cache != nullptr) {
      errors.add("dynamic chain ", c,
                 ": cache installed but per_chain_cache is disabled");
    }
    check_cache_member(bucket.cache, what.str().c_str(), members, errors);
    total += members.size();
    all.insert(all.end(), members.begin(), members.end());
  }

  if (demuxer.old_ != nullptr) {
    const auto& old = *demuxer.old_;
    if (old.residents == 0) {
      errors.add(
          "dynamic(old): migration adjunct present with zero residents");
    }
    if (old.cursor > old.buckets.size()) {
      errors.add("dynamic(old): cursor ", old.cursor,
                 " exceeds bucket count ", old.buckets.size());
    }
    std::size_t old_total = 0;
    for (std::uint32_t c = 0; c < old.buckets.size(); ++c) {
      const DynamicHashDemuxer::Bucket& bucket = old.buckets[c];
      std::vector<const Pcb*> members;
      std::ostringstream what;
      what << "dynamic(old) chain " << c;
      check_list(bucket.list, what.str().c_str(), errors, &members);
      // Drained-prefix invariant: the cursor advances only past empty
      // buckets and nothing is ever inserted into the old array, so
      // [0, cursor) stays empty for the whole migration.
      if (c < old.cursor && !members.empty()) {
        errors.add("dynamic(old): chain ", c,
                   " in the drained prefix [0, cursor=", old.cursor,
                   ") is non-empty");
      }
      for (const Pcb* p : members) {
        if (demuxer.old_chain_of(p->key) != c) {
          errors.add("dynamic(old): PCB ", p->key.to_string(),
                     " hashes to chain ", demuxer.old_chain_of(p->key),
                     " but sits on chain ", c);
        }
      }
      check_cache_member(bucket.cache, what.str().c_str(), members, errors);
      old_total += members.size();
      all.insert(all.end(), members.begin(), members.end());
    }
    if (old_total != old.residents) {
      errors.add("dynamic(old): chain occupancy total (", old_total,
                 ") != residents counter (", old.residents, ")");
    }
    total += old_total;
  }

  if (total != demuxer.size_) {
    errors.add("dynamic: chain occupancy total (", total,
               ") != size counter (", demuxer.size_, ")");
  }
  check_unique(all, "dynamic", errors);
  return report;
}

ValidationReport StructuralValidator::validate(
    const ConnectionIdDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);

  // Side table -> slot array: every mapping must land on a live slot whose
  // PCB carries the mapped key and whose conn_id is its own slot index.
  std::size_t occupied = 0;
  for (const auto& slot : demuxer.slots_) {
    if (slot != nullptr) ++occupied;
  }
  for (const auto& [key, id] : demuxer.id_by_key_) {
    if (id >= demuxer.slots_.size()) {
      errors.add("connection_id: key ", key.to_string(),
                 " maps to out-of-range id ", id);
      continue;
    }
    const Pcb* pcb = demuxer.slots_[id].get();
    if (pcb == nullptr) {
      errors.add("connection_id: key ", key.to_string(),
                 " maps to empty slot ", id);
    } else {
      if (pcb->key != key) {
        errors.add("connection_id: slot ", id, " holds key ",
                   pcb->key.to_string(), " but the table maps ",
                   key.to_string(), " to it");
      }
      if (pcb->conn_id != id) {
        errors.add("connection_id: slot ", id, " PCB carries conn_id ",
                   pcb->conn_id, " != its slot index");
      }
    }
  }
  if (occupied != demuxer.id_by_key_.size()) {
    errors.add("connection_id: occupied slots (", occupied,
               ") != side-table entries (", demuxer.id_by_key_.size(), ")");
  }

  // Free list: in-range, unique, and only over empty slots; together with
  // the occupied slots it must account for the whole ID space.
  std::unordered_set<std::uint32_t> free_seen;
  for (const std::uint32_t id : demuxer.free_ids_) {
    if (id >= demuxer.capacity_) {
      errors.add("connection_id: free list holds out-of-range id ", id);
      continue;
    }
    if (!free_seen.insert(id).second) {
      errors.add("connection_id: free list holds id ", id, " twice");
    }
    if (demuxer.slots_[id] != nullptr) {
      errors.add("connection_id: free list holds id ", id,
                 " whose slot is occupied");
    }
  }
  if (free_seen.size() + occupied != demuxer.capacity_) {
    errors.add("connection_id: free ids (", free_seen.size(),
               ") + occupied slots (", occupied, ") != capacity (",
               demuxer.capacity_, ")");
  }
  return report;
}

ValidationReport StructuralValidator::validate(
    const RcuSequentDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);
  std::unordered_set<const Pcb*> seen;
  std::unordered_set<net::FlowKey> keys;
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < demuxer.buckets_.size(); ++c) {
    const RcuSequentDemuxer::Bucket& bucket = *demuxer.buckets_[c];
    std::unordered_set<const RcuSequentDemuxer::Node*> chain_nodes;
    std::size_t count = 0;
    for (const RcuSequentDemuxer::Node* n =
             bucket.head.load(std::memory_order_acquire);
         n != nullptr; n = n->next.load(std::memory_order_acquire)) {
      if (count > demuxer.size() + 1) {
        errors.add("rcu chain ", c, ": more nodes reachable than size()=",
                   demuxer.size(), " (cycle or lost count)");
        break;
      }
      chain_nodes.insert(n);
      if (n->retired) {
        errors.add("rcu chain ", c, ": reachable node ",
                   n->pcb.key.to_string(), " is flagged retired");
      }
      if (demuxer.chain_of(n->pcb.key) != c) {
        errors.add("rcu: PCB ", n->pcb.key.to_string(), " hashes to chain ",
                   demuxer.chain_of(n->pcb.key), " but sits on chain ", c);
      }
      if (!seen.insert(&n->pcb).second) {
        errors.add("rcu: PCB ", n->pcb.key.to_string(),
                   " is reachable twice");
      }
      if (!keys.insert(n->pcb.key).second) {
        errors.add("rcu: duplicate key ", n->pcb.key.to_string());
      }
      ++count;
    }
    total += count;

    const RcuSequentDemuxer::Node* cache =
        bucket.cache.load(std::memory_order_acquire);
    if (cache != nullptr) {
      if (!demuxer.options_.per_chain_cache) {
        errors.add("rcu chain ", c,
                   ": cache installed but per_chain_cache is disabled");
      }
      if (!chain_nodes.contains(cache)) {
        errors.add("rcu chain ", c,
                   ": cache points at a node that is not on the chain");
      } else if (cache->retired) {
        errors.add("rcu chain ", c, ": cache resurrects a retired node");
      }
    }
  }
  if (total != demuxer.size()) {
    errors.add("rcu: chain occupancy total (", total, ") != size counter (",
               demuxer.size(), ")");
  }
  if (demuxer.epoch_.freed_count() > demuxer.epoch_.retired_count()) {
    errors.add("rcu: epoch manager freed (", demuxer.epoch_.freed_count(),
               ") more nodes than were retired (",
               demuxer.epoch_.retired_count(), ")");
  }
  return report;
}

ValidationReport StructuralValidator::validate(const FlatDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);
  const std::size_t capacity = demuxer.capacity();
  const auto& live = demuxer.live_;
  const auto& old = demuxer.old_;
  if (capacity == 0 || (capacity & (capacity - 1)) != 0) {
    errors.add("flat: capacity ", capacity, " is not a power of two");
    return report;
  }
  // Each array's parallel slot arrays share its capacity, which its mask
  // names; the old array (when migrating) drains into one exactly one
  // doubling larger.
  for (const auto* slots : {&live, &old}) {
    const std::size_t cap = slots->capacity();
    if (cap == 0) continue;
    if (slots->hashes.size() != cap || slots->index.size() != cap ||
        slots->mask + 1 != cap) {
      errors.add(slots == &live ? "flat" : "flat(old)",
                 ": slot arrays are not all sized to capacity ", cap);
      return report;
    }
  }
  if (demuxer.migrating() && old.capacity() * 2 != capacity) {
    errors.add("flat(old): old capacity ", old.capacity(),
               " is not half the live capacity ", capacity);
  }

  // PCB ownership: the slab's free list names distinct cells below the
  // high-water mark, and every occupied slot (live or old array) names a
  // distinct, allocated cell. Checked before any PCB is read, so a planted
  // bad index is reported instead of dereferenced (a freed cell is
  // poisoned under ASan).
  const PcbSlab& slab = demuxer.slab_;
  const std::uint32_t high_water = slab.high_water();
  std::vector<bool> freed(high_water, false);
  for (const std::uint32_t f : slab.free_list()) {
    if (f >= high_water) {
      errors.add("flat: slab free list names index ", f,
                 " at or beyond the high-water mark ", high_water);
    } else if (freed[f]) {
      errors.add("flat: slab free list names index ", f, " twice");
    } else {
      freed[f] = true;
    }
  }
  std::vector<bool> named(high_water, false);

  // Per-array slot checks; the key set is shared across the live and (when
  // migrating) old arrays so a key resident in both is caught as a
  // duplicate. Returns the array's occupied-slot count.
  std::unordered_set<net::FlowKey> keys;
  const auto check_slots = [&](const FlatDemuxer::Slots& slots,
                               const char* what) {
    std::size_t occupied = 0;
    for (std::size_t i = 0; i < slots.capacity(); ++i) {
      if (slots.tags[i] == 0) continue;
      ++occupied;
      const std::uint32_t idx = slots.index[i];
      if (idx >= high_water) {
        errors.add(what, " slot ", i, ": PCB index ", idx,
                   " is at or beyond the slab high-water mark ", high_water);
        continue;
      }
      if (freed[idx]) {
        errors.add(what, " slot ", i, ": names freed PCB index ", idx);
        continue;
      }
      if (named[idx]) {
        errors.add(what, " slot ", i, ": names PCB index ", idx,
                   " already named by another slot");
        continue;
      }
      named[idx] = true;
      // Tag <-> hash <-> key agreement: the fingerprint array and the
      // hash array must both describe the key of the PCB the slot names,
      // or lookups silently stop finding it.
      const net::FlowKey& slot_key = slab.at(idx).key;
      const std::uint32_t h = demuxer.hash_of(slot_key);
      if (slots.hashes[i] != h) {
        errors.add(what, " slot ", i, ": stored hash ", slots.hashes[i],
                   " != hash of stored key ", h);
      }
      if (slots.tags[i] != FlatDemuxer::tag_of(slots.hashes[i])) {
        errors.add(what, " slot ", i, ": tag ",
                   static_cast<unsigned>(slots.tags[i]),
                   " disagrees with stored hash's fingerprint ",
                   static_cast<unsigned>(FlatDemuxer::tag_of(slots.hashes[i])));
      }
      // Robin-hood probe invariant: a displaced resident implies an
      // occupied predecessor at most one step closer to its own home. A
      // violation ends the key's probe run before its slot (the key
      // becomes unreachable).
      const std::size_t dist = slots.probe_distance(i);
      if (dist > 0) {
        const std::size_t prev = (i - 1) & slots.mask;
        if (slots.tags[prev] == 0) {
          errors.add(what, " slot ", i, ": probe distance ", dist,
                     " but predecessor slot is empty");
        } else if (slots.probe_distance(prev) + 1 < dist) {
          errors.add(what, " slot ", i, ": probe distance ", dist,
                     " exceeds predecessor's by more than one (",
                     slots.probe_distance(prev), ")");
        }
      }
      if (!keys.insert(slot_key).second) {
        errors.add(what, ": duplicate key ", slot_key.to_string());
      }
    }
    return occupied;
  };

  std::size_t occupied = check_slots(live, "flat");
  if (demuxer.migrating()) {
    // The old array exists only while debt remains. Drained-prefix
    // invariant: the cursor advances only past empty slots and nothing is
    // ever placed into the old array, so [0, cursor) stays empty for the
    // whole migration.
    if (demuxer.old_residents_ == 0) {
      errors.add("flat(old): migration adjunct present with zero residents");
    }
    if (demuxer.old_cursor_ > old.capacity()) {
      errors.add("flat(old): cursor ", demuxer.old_cursor_,
                 " exceeds capacity ", old.capacity());
    }
    for (std::size_t i = 0; i < std::min(demuxer.old_cursor_, old.capacity());
         ++i) {
      if (old.tags[i] != 0) {
        errors.add("flat(old): slot ", i, " in the drained prefix [0, cursor=",
                   demuxer.old_cursor_, ") is occupied");
        break;
      }
    }
    const std::size_t old_occupied = check_slots(old, "flat(old)");
    if (old_occupied != demuxer.old_residents_) {
      errors.add("flat(old): occupied slots (", old_occupied,
                 ") != residents counter (", demuxer.old_residents_, ")");
    }
    occupied += old_occupied;
  }

  if (occupied != demuxer.size_) {
    errors.add("flat: occupied slots (", occupied, ") != size counter (",
               demuxer.size_, ")");
  }
  // Every allocated cell is named by exactly one slot: a surplus is a
  // leaked PCB, a deficit a slot naming a cell the slab thinks is free.
  if (slab.live() != occupied) {
    errors.add("flat: slab holds ", slab.live(),
               " allocated PCBs but the slot arrays name ", occupied);
  }
  // Growth keeps occupancy at or below 7/8; a violation means the next
  // insert was allowed to degrade probe runs past the design bound. While
  // growth is allocation-blocked the degradation ladder admits up to the
  // hard 15/16 shed watermark instead.
  if (demuxer.grow_blocked_) {
    if (demuxer.size_ * 16 > capacity * 15) {
      errors.add("flat: occupancy ", demuxer.size_,
                 " exceeds the blocked-growth 15/16 watermark of capacity ",
                 capacity);
    }
  } else if (demuxer.size_ * 8 > capacity * 7) {
    errors.add("flat: occupancy ", demuxer.size_, " exceeds 7/8 of capacity ",
               capacity);
  }
  return report;
}

ValidationReport StructuralValidator::validate(const ShardedDemuxer& demuxer) {
  ValidationReport report;
  Errors errors(report);

  // Each shard is a full registry backend: recurse through the type
  // dispatcher so a shard's inner corruption surfaces with its shard index.
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < demuxer.shard_count(); ++s) {
    const Demuxer& shard = demuxer.shard(s);
    const ValidationReport inner = validate_demuxer(shard);
    for (const std::string& e : inner.errors) {
      errors.add("shard ", s, ": ", e);
    }
    total += shard.size();
  }
  if (total != demuxer.size()) {
    errors.add("sharded: sum of shard sizes ", total, " != size() ",
               demuxer.size());
  }

  // Cross-shard invariants: no key resident twice anywhere in the fleet,
  // and — while steering has never drifted — every PCB on exactly the
  // shard its key steers to (a wrong-shard resident would be unreachable
  // via the fast path, a silent connection loss).
  std::unordered_set<net::FlowKey> seen;
  seen.reserve(demuxer.size());
  for (std::uint32_t s = 0; s < demuxer.shard_count(); ++s) {
    demuxer.shard(s).for_each_pcb([&](const Pcb& pcb) {
      if (!seen.insert(pcb.key).second) {
        errors.add("sharded: key ", pcb.key.to_string(),
                   " resident on more than one shard");
      }
      if (!demuxer.misplaced_possible_ &&
          demuxer.home_shard(pcb.key) != s) {
        errors.add("sharded: key ", pcb.key.to_string(), " on shard ", s,
                   " but steering homes it on shard ",
                   demuxer.home_shard(pcb.key));
      }
    });
  }
  return report;
}

ValidationReport validate_demuxer(const Demuxer& demuxer) {
  if (const auto* d = dynamic_cast<const ShardedDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  if (const auto* d = dynamic_cast<const BsdListDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  if (const auto* d = dynamic_cast<const MoveToFrontDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  if (const auto* d = dynamic_cast<const SendReceiveCacheDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  if (const auto* d = dynamic_cast<const SequentDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  if (const auto* d = dynamic_cast<const HashedMtfDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  if (const auto* d = dynamic_cast<const DynamicHashDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  if (const auto* d = dynamic_cast<const ConnectionIdDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  if (const auto* d = dynamic_cast<const RcuDemuxerAdapter*>(&demuxer)) {
    return StructuralValidator::validate(d->inner());
  }
  if (const auto* d = dynamic_cast<const FlatDemuxer*>(&demuxer)) {
    return StructuralValidator::validate(*d);
  }
  ValidationReport report;
  report.errors.push_back("validate_demuxer: no validator for demuxer '" +
                          demuxer.name() + "'");
  return report;
}

// --- test-only access ------------------------------------------------------

PcbList& ValidatorTestAccess::list(BsdListDemuxer& d) { return d.list_; }
Pcb*& ValidatorTestAccess::cache(BsdListDemuxer& d) { return d.cache_; }
PcbList& ValidatorTestAccess::list(MoveToFrontDemuxer& d) { return d.list_; }
PcbList& ValidatorTestAccess::list(SendReceiveCacheDemuxer& d) {
  return d.list_;
}
Pcb*& ValidatorTestAccess::recv_cache(SendReceiveCacheDemuxer& d) {
  return d.recv_cache_;
}
Pcb*& ValidatorTestAccess::send_cache(SendReceiveCacheDemuxer& d) {
  return d.send_cache_;
}
PcbList& ValidatorTestAccess::chain(SequentDemuxer& d, std::uint32_t chain) {
  return d.buckets_[chain].list;
}
Pcb*& ValidatorTestAccess::cache(SequentDemuxer& d, std::uint32_t chain) {
  return d.buckets_[chain].cache;
}
std::size_t& ValidatorTestAccess::size(SequentDemuxer& d) { return d.size_; }
PcbList& ValidatorTestAccess::chain(HashedMtfDemuxer& d, std::uint32_t chain) {
  return d.buckets_[chain];
}
std::size_t& ValidatorTestAccess::size(HashedMtfDemuxer& d) { return d.size_; }
PcbList& ValidatorTestAccess::chain(DynamicHashDemuxer& d,
                                    std::uint32_t chain) {
  return d.buckets_[chain].list;
}
Pcb*& ValidatorTestAccess::cache(DynamicHashDemuxer& d, std::uint32_t chain) {
  return d.buckets_[chain].cache;
}
std::size_t& ValidatorTestAccess::size(DynamicHashDemuxer& d) {
  return d.size_;
}

void ValidatorTestAccess::rebind_id(ConnectionIdDemuxer& d, const Pcb& pcb,
                                    std::uint32_t id) {
  d.id_by_key_[pcb.key] = id;
}
void ValidatorTestAccess::push_free_id(ConnectionIdDemuxer& d,
                                       std::uint32_t id) {
  d.free_ids_.push_back(id);
}
void ValidatorTestAccess::pop_free_id(ConnectionIdDemuxer& d) {
  d.free_ids_.pop_back();
}

bool ValidatorTestAccess::rcu_move_head(RcuSequentDemuxer& d,
                                        std::uint32_t from, std::uint32_t to) {
  RcuSequentDemuxer::Bucket& src = *d.buckets_[from];
  RcuSequentDemuxer::Bucket& dst = *d.buckets_[to];
  RcuSequentDemuxer::Node* n = src.head.load(std::memory_order_relaxed);
  if (n == nullptr) return false;
  src.head.store(n->next.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  n->next.store(dst.head.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  dst.head.store(n, std::memory_order_relaxed);
  return true;
}
bool ValidatorTestAccess::rcu_cache_foreign_head(RcuSequentDemuxer& d,
                                                 std::uint32_t chain,
                                                 std::uint32_t other) {
  RcuSequentDemuxer::Node* n =
      d.buckets_[other]->head.load(std::memory_order_relaxed);
  if (n == nullptr) return false;
  d.buckets_[chain]->cache.store(n, std::memory_order_relaxed);
  return true;
}
void ValidatorTestAccess::rcu_clear_cache(RcuSequentDemuxer& d,
                                          std::uint32_t chain) {
  d.buckets_[chain]->cache.store(nullptr, std::memory_order_relaxed);
}
bool ValidatorTestAccess::rcu_toggle_head_retired(RcuSequentDemuxer& d,
                                                  std::uint32_t chain) {
  RcuSequentDemuxer::Node* n =
      d.buckets_[chain]->head.load(std::memory_order_relaxed);
  if (n == nullptr) return false;
  n->retired = !n->retired;
  return true;
}
void ValidatorTestAccess::rcu_adjust_size(RcuSequentDemuxer& d,
                                          std::ptrdiff_t delta) {
  d.size_.store(d.size_.load(std::memory_order_relaxed) +
                    static_cast<std::size_t>(delta),
                std::memory_order_relaxed);
}

SlotArray<std::uint8_t>& ValidatorTestAccess::flat_tags(FlatDemuxer& d) {
  return d.live_.tags;
}
std::size_t& ValidatorTestAccess::flat_size(FlatDemuxer& d) {
  return d.size_;
}
SlotArray<std::uint32_t>& ValidatorTestAccess::flat_index(FlatDemuxer& d) {
  return d.live_.index;
}
void ValidatorTestAccess::flat_move_slot(FlatDemuxer& d, std::size_t from,
                                         std::size_t to) {
  auto& live = d.live_;
  live.tags[to] = live.tags[from];
  live.hashes[to] = live.hashes[from];
  live.index[to] = live.index[from];
  live.tags[from] = 0;
}

}  // namespace tcpdemux::core
