// RCU-style read-mostly Sequent demuxer: lock-free lookups over hash
// chains, epoch-based reclamation for erase.
//
// Demultiplexing under OLTP traffic is ~100% reads: connections live for
// many transactions, so inserts and erases are orders of magnitude rarer
// than lookups. ConcurrentSequentDemuxer still pays an uncontended
// mutex acquire/release per lookup and serializes lookups that collide
// on a chain. This demuxer removes locks from the read path entirely —
// the design the paper's first author later canonized as RCU [McK98]:
//
//   * each chain is a singly linked list of immutable-key nodes with
//     atomic next pointers; readers traverse with plain acquire loads
//     under an EpochManager::Guard — no locks, no RMW, no stores to
//     shared lines (except an opportunistic cache install, below);
//   * insert/erase serialize per chain behind a striped mutex exactly as
//     ConcurrentSequentDemuxer does, publish with release stores, and
//     retire unlinked nodes through the epoch manager, which frees them
//     only after every reader that could hold a reference has left its
//     critical section;
//   * the per-chain one-entry cache (the paper's §3.4 structure) is an
//     atomic pointer probed lock-free. Installing a new cache entry from
//     the read path uses try_lock + a retired flag so a reader can never
//     resurrect an already-retired node into the cache (the classic
//     lookup-cache/RCU interaction hazard); if the chain lock is busy the
//     install is simply skipped — the cache is a hint.
//
// lookup_batch() amortizes the epoch enter/exit and the hash computation
// over a burst of packets — the shape in which a NIC actually hands
// packets to the stack.
//
// Pcb* lifetime contract: a pointer returned by lookup() may be
// dereferenced only while the caller is inside an epoch guard entered
// BEFORE the lookup (guards nest, so lookup()'s internal guard composes
// with the caller's):
//
//   EpochManager::Guard g(d.epoch_manager());
//   const auto r = d.lookup(key);
//   if (r.pcb != nullptr) use(*r.pcb);   // safe: g still pinned
//
// lookup()'s own guard protects only the lookup itself — the moment it
// returns, a grace period can elapse and a concurrently erased node be
// freed, so an unguarded caller may compare the pointer but not follow
// it. Callers needing references that outlive the guard must coordinate
// with erasure (PCB refcounting, out of scope here, exactly as in
// concurrent_demuxer.h).
#ifndef TCPDEMUX_CORE_RCU_DEMUXER_H_
#define TCPDEMUX_CORE_RCU_DEMUXER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/demuxer.h"
#include "core/epoch.h"
#include "core/thread_annotations.h"
#include "net/hashers.h"

namespace tcpdemux::core {

/// Lock-free-read variant of the Sequent algorithm. Same single-threaded
/// semantics (and examined-PCB accounting) as SequentDemuxer; same
/// concurrency contract as ConcurrentSequentDemuxer, minus the read-side
/// locks.
class RcuSequentDemuxer {
 public:
  struct Options {
    std::uint32_t chains = 19;
    net::HashSpec hasher = net::HasherKind::kXorFold;  ///< seed 0 = unkeyed
    bool per_chain_cache = true;
    // No rehash-on-overload here: a seed rotation would relocate every node
    // under concurrent lock-free readers, a full-table RCU rebuild that is
    // out of scope. Deployments facing collision floods run this table with
    // a keyed hasher (siphash@seed) so the flood never lands.
  };

  RcuSequentDemuxer() : RcuSequentDemuxer(Options()) {}
  explicit RcuSequentDemuxer(Options options);
  ~RcuSequentDemuxer();

  RcuSequentDemuxer(const RcuSequentDemuxer&) = delete;
  RcuSequentDemuxer& operator=(const RcuSequentDemuxer&) = delete;

  /// Inserts a PCB for `key`; nullptr if the key is present or the
  /// insert is refused. `refused` is the allocation gate, called under the
  /// chain lock after the duplicate check (default: the fault injector).
  Pcb* insert(const net::FlowKey& key,
              const std::function<bool()>& refused = {});
  bool erase(const net::FlowKey& key);
  LookupResult lookup(const net::FlowKey& key,
                      SegmentKind kind = SegmentKind::kData);

  /// Demultiplexes a burst of packets under one epoch guard, writing
  /// results[i] for keys[i]. `results.size()` must be >= `keys.size()`.
  void lookup_batch(std::span<const net::FlowKey> keys,
                    std::span<LookupResult> results,
                    SegmentKind kind = SegmentKind::kData);

  /// Best wildcard match (BSD in_pcblookup semantics) across all chains,
  /// mirroring SequentDemuxer::lookup_wildcard. Lock-free.
  LookupResult lookup_wildcard(const net::FlowKey& key);

  /// Snapshot iteration under an epoch guard: sees every PCB present for
  /// the whole call; concurrent inserts/erases may or may not appear.
  void for_each_pcb(const std::function<void(const Pcb&)>& fn) const;

  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t lookups() const noexcept {
    return lookups_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t pcbs_examined() const noexcept {
    return examined_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::string name() const;
  [[nodiscard]] std::uint32_t chains() const noexcept {
    return options_.chains;
  }
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Per-chain node counts, walked under an epoch guard. A concurrent
  /// writer may skew one chain by a node; the quiescent (telemetry
  /// snapshot) case is exact.
  [[nodiscard]] std::vector<std::size_t> chain_sizes() const;

  /// The reclamation engine (test/ops hook: epoch, retired/freed counts).
  [[nodiscard]] EpochManager& epoch_manager() noexcept { return epoch_; }

 private:
  friend class StructuralValidator;   // src/core/validate.h (quiescent only)
  friend struct ValidatorTestAccess;  // negative validator tests only

  struct Node {
    Node(const net::FlowKey& k, std::uint64_t id) noexcept : pcb(k, id) {}
    Pcb pcb;
    std::atomic<Node*> next{nullptr};
    // Guarded by the owning Bucket's mutex — a cross-object protocol
    // GUARDED_BY cannot name (the capability lives in another struct), so
    // it stays a comment + TSan territory. Readers never touch it; the
    // cache-install path checks it only inside try_lock.
    bool retired = false;
  };

  struct alignas(64) Bucket {
    Mutex mutex;  // writers + cache installs only; reads are lock-free
    // head/cache stay lock-free-readable atomics, not GUARDED_BY: the
    // whole point of this structure is that the read path loads them
    // without the capability. The mutex serializes *writers* only.
    std::atomic<Node*> head{nullptr};
    std::atomic<Node*> cache{nullptr};
  };

  [[nodiscard]] std::uint32_t chain_of(const net::FlowKey& key) const noexcept {
    return net::hash_chain(options_.hasher, key, options_.chains);
  }

  /// The read path proper; caller must hold an epoch guard.
  LookupResult lookup_in_chain(Bucket& b, const net::FlowKey& key) noexcept;

  // NOLINTNEXTLINE(raw-owning-memory): the epoch manager owns retired nodes.
  static void delete_node(void* p) { delete static_cast<Node*>(p); }

  Options options_;
  std::vector<std::unique_ptr<Bucket>> buckets_;
  mutable EpochManager epoch_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> examined_{0};
  std::atomic<std::uint64_t> conn_seq_{0};
};

/// Registry adapter: presents RcuSequentDemuxer through the Demuxer
/// interface so every table, bench, and property test can drive it.
/// Demuxer::stats_ recording is not thread-safe, so this adapter keeps
/// the single-threaded contract of the other registry algorithms;
/// concurrent callers use RcuSequentDemuxer directly.
class RcuDemuxerAdapter final : public Demuxer {
 public:
  explicit RcuDemuxerAdapter(RcuSequentDemuxer::Options options)
      : inner_(options) {}

  Pcb* insert(const net::FlowKey& key) override {
    Pcb* pcb = inner_.insert(key, [this] { return insert_refused(); });
    if (pcb != nullptr) telemetry_->on_insert();
    return pcb;
  }
  bool erase(const net::FlowKey& key) override {
    const bool erased = inner_.erase(key);
    if (erased) telemetry_->on_erase();
    return erased;
  }
  using Demuxer::lookup;
  LookupResult lookup(const net::FlowKey& key, SegmentKind kind) override {
    const LookupResult r = inner_.lookup(key, kind);
    note_lookup(r);
    return r;
  }
  void lookup_batch(std::span<const net::FlowKey> keys,
                    std::span<LookupResult> results,
                    SegmentKind kind) override {
    inner_.lookup_batch(keys, results, kind);
    for (std::size_t i = 0; i < keys.size(); ++i) note_lookup(results[i]);
  }
  LookupResult lookup_wildcard(const net::FlowKey& key) override {
    return inner_.lookup_wildcard(key);
  }
  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  void for_each_pcb(
      const std::function<void(const Pcb&)>& fn) const override {
    inner_.for_each_pcb(fn);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::size_t memory_bytes() const override {
    return inner_.memory_bytes();
  }
  [[nodiscard]] std::vector<std::size_t> occupancy() const override {
    return inner_.chain_sizes();
  }

  [[nodiscard]] RcuSequentDemuxer& inner() noexcept { return inner_; }
  [[nodiscard]] const RcuSequentDemuxer& inner() const noexcept {
    return inner_;
  }

 private:
  RcuSequentDemuxer inner_;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_RCU_DEMUXER_H_
