// Cache-conscious flat demuxer: open addressing with robin-hood probing,
// one-byte fingerprint tags, and tombstone-free backward-shift deletion.
//
// The paper's figure of merit — PCBs examined per lookup — is a surrogate
// for memory traffic: every chain-following demuxer in this library (BSD,
// MTF, SR, Sequent, RCU) pays at least one dependent pointer chase into a
// few-hundred-byte PCB per examined node. This structure attacks the
// traffic directly, the way modern flow tables (Cuckoo++ [LeS17], DPDK
// hash) do:
//
//   * power-of-two slot array, structure-of-arrays layout: a probe walks a
//     dense 1-byte tag array first, so resolving a slot costs a fraction
//     of a cache line, not a PCB-sized load. A slot is 9 bytes: tag, hash,
//     and the 32-bit index of its PCB in the table's slab (core/pcb_slab.h);
//   * the tag holds an occupied bit plus 7 fingerprint bits from the top
//     of the hash. A key comparison happens only on a fingerprint match —
//     with 7 bits, ~1/128 of colliding probes are false positives — and it
//     reads the key from the PCB itself: line 0 of a 64-byte-aligned PCB,
//     the line a hit's caller touches next anyway. So "PCBs examined" is
//     literally the number of PCBs read;
//   * robin-hood insertion bounds probe-sequence variance (an inserting
//     key displaces any resident closer to its home slot), which keeps the
//     early-exit bound on misses tight;
//   * deletion backward-shifts the following probe run instead of leaving
//     tombstones, so load factor — and therefore probe length — never
//     degrades with churn;
//   * growth doubles the table at 7/8 occupancy and rehashes in place
//     (amortized O(1) per insert). Slots move PCB indices, never PCBs, so
//     a Pcb* stays valid across growth and slot shifts until its own
//     erase; its slab cell is then reused;
//   * with Options::incremental the rehash is no longer stop-the-world:
//     the old slot array is kept behind a drain cursor and every
//     insert/erase/lookup migrates a bounded batch of residents into the
//     doubled array, so worst-case per-operation work is O(batch), not
//     O(n). When the doubled array cannot be allocated the table degrades
//     down a ladder — defer-and-retry with exponential backoff, then
//     shed-at-watermark — instead of corrupting state (see DESIGN.md
//     "Incremental resize & degradation ladder").
//
// Accounting: `examined` counts key comparisons (fingerprint hits), the
// moments this structure actually touches a connection's identity. Tag
// probes are free by design — that is the whole point of the layout — so
// a miss that never matches a fingerprint reports 0 examined PCBs.
//
// The hash is finalized with a 32-bit avalanche mix before use: the table
// masks low bits for the slot index and takes the top bits as the
// fingerprint, so weak folds (the 1992 candidates) would otherwise cluster
// both. Chained tables hide this behind a prime modulus; a flat table must
// repair it itself.
#ifndef TCPDEMUX_CORE_FLAT_DEMUXER_H_
#define TCPDEMUX_CORE_FLAT_DEMUXER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/demuxer.h"
#include "core/huge_pages.h"
#include "core/pcb_slab.h"
#include "net/hashers.h"

namespace tcpdemux::core {

class FlatDemuxer final : public Demuxer {
 public:
  struct Options {
    std::size_t initial_capacity = 1024;  ///< rounded up to a power of two
    net::HashSpec hasher = net::HasherKind::kXorFold;  ///< seed 0 = unkeyed
    /// Rotate the hash seed and rehash in place when an insert's probe run
    /// exceeds the overload watermark (collision-flood defense).
    bool rehash_on_overload = false;
    /// Refuse inserts beyond this many PCBs (0 = unbounded). Refused
    /// inserts return nullptr and count in resilience().inserts_shed.
    std::size_t max_pcbs = 0;
    /// Probe the fingerprint-tag array 16 slots at a time (core/simd.h)
    /// instead of byte-at-a-time: one vector compare filters a whole group
    /// and one more finds the run-terminating empty slot. Registered as the
    /// `flat16` spec. Storage, insertion, and deletion are unchanged —
    /// robin-hood keeps every probe run contiguous from the home slot to
    /// the first empty slot, which is exactly what group termination needs.
    bool group_probe = false;
    /// Grow by incremental migration instead of a stop-the-world rehash:
    /// the old array drains behind a cursor, a bounded batch per
    /// operation, with the allocation-failure degradation ladder armed.
    bool incremental = false;
  };

  FlatDemuxer() : FlatDemuxer(Options()) {}
  explicit FlatDemuxer(Options options);

  Pcb* insert(const net::FlowKey& key) override;
  bool erase(const net::FlowKey& key) override;
  using Demuxer::lookup;
  LookupResult lookup(const net::FlowKey& key, SegmentKind kind) override;
  void lookup_batch(std::span<const net::FlowKey> keys,
                    std::span<LookupResult> results,
                    SegmentKind kind) override;
  LookupResult lookup_wildcard(const net::FlowKey& key) override;
  /// Hashes `key` and prefetches its home tag and index lines in the live
  /// array: the first loads of a lookup() of the same key.
  void prefetch(const net::FlowKey& key) const noexcept override;
  [[nodiscard]] std::size_t size() const override { return size_; }
  void for_each_pcb(
      const std::function<void(const Pcb&)>& fn) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t memory_bytes() const override;

  /// Current slot count (doubles as the table grows). Test/bench hook.
  /// While an incremental migration is in flight this is the *new* array's
  /// capacity; the draining old array is extra (see memory_bytes()).
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

  /// The PCB storage (test/bench hook: chunk count, high-water mark).
  [[nodiscard]] const PcbSlab& slab() const noexcept { return slab_; }

  bool migration_step() override;
  /// True while an incremental migration is draining the old array.
  [[nodiscard]] bool migrating() const noexcept { return old_ != nullptr; }
  /// Residents still waiting in the old array (0 when not migrating).
  [[nodiscard]] std::size_t migration_debt() const noexcept {
    return old_ != nullptr ? old_->residents : 0;
  }
  /// True while the degradation ladder has growth blocked on allocation
  /// failure (inserts shed once occupancy reaches 15/16).
  [[nodiscard]] bool growth_blocked() const noexcept { return grow_blocked_; }
  /// Longest probe sequence any resident key currently needs (test hook:
  /// robin-hood keeps this small even at high load).
  [[nodiscard]] std::size_t max_probe_distance() const noexcept;

  /// Open addressing has no chains; the natural partition is the probe
  /// run — a maximal span of contiguous occupied slots (wrapping), which
  /// bounds every resident's probe cost. Run lengths sum to size().
  [[nodiscard]] std::vector<std::size_t> occupancy() const override;

  [[nodiscard]] ResilienceStats resilience() const override;
  /// Current hash spec (seed changes after an overload rehash; test hook).
  [[nodiscard]] net::HashSpec hash_spec() const noexcept {
    return options_.hasher;
  }
  /// Longest probe run an overload check tolerates: robin-hood keeps benign
  /// probe runs near O(log capacity) even at 7/8 load, while a flood aimed
  /// at one home slot grows a run linearly and crosses this quickly.
  [[nodiscard]] std::uint64_t watermark_limit() const noexcept {
    std::uint64_t log2 = 0;
    for (std::size_t c = capacity(); c > 1; c >>= 1) ++log2;
    return 24 + 4 * log2;
  }

 private:
  friend class StructuralValidator;   // src/core/validate.h
  friend struct ValidatorTestAccess;  // negative validator tests only

  /// Slot arrays: huge-page backed from 2 MiB up (core/huge_pages.h).
  using Tags = SlotArray<std::uint8_t>;
  using Words = SlotArray<std::uint32_t>;

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 16;

  /// Tag byte: occupied bit (0x80) | top 7 hash bits. 0 means empty.
  [[nodiscard]] static constexpr std::uint8_t tag_of(std::uint32_t h) noexcept {
    return static_cast<std::uint8_t>(0x80U | (h >> 25));
  }

  /// The avalanche finalizer (net::mix32_avalanche) repairs weak folds so
  /// every input bit reaches the masked index bits and fingerprint bits.
  [[nodiscard]] std::uint32_t hash_of(const net::FlowKey& key) const noexcept {
    return net::mix32_avalanche(net::hash_flow(options_.hasher, key));
  }

  /// Distance of slot `i`'s resident from its home slot, in probe steps.
  [[nodiscard]] std::size_t probe_distance(std::size_t i) const noexcept {
    return (i - (hashes_[i] & mask_)) & mask_;
  }

  struct Probe {
    std::size_t slot = kNpos;      ///< kNpos when absent
    std::uint32_t examined = 0;    ///< key comparisons performed
  };
  [[nodiscard]] Probe find_slot(std::uint32_t h,
                                const net::FlowKey& key) const noexcept;
  /// Group-probed variant of find_slot (Options::group_probe): examines
  /// 16-aligned tag groups with one vector compare each. Capacity is a
  /// power of two >= 16, so groups never straddle the array end and the
  /// wrap is a mask on the group base. Slots before the home slot in its
  /// own group are masked out — they belong to an earlier probe run.
  [[nodiscard]] Probe find_slot_grouped(std::uint32_t h,
                                        const net::FlowKey& key) const noexcept;

  /// The key stored in slab cell `index` (the PCB's own line 0).
  [[nodiscard]] const net::FlowKey& key_at(std::uint32_t index) const noexcept {
    return slab_.at(index).key;
  }

  /// Robin-hood placement of a (pre-hashed) PCB index; the caller has
  /// already established the key is absent and the load factor is
  /// acceptable. Returns the longest probe distance the placement walked
  /// (the overload watermark signal).
  std::size_t place(std::uint32_t h, std::uint32_t index);
  /// Backward-shift removal of the resident at slot `i`.
  void remove_at(std::size_t i);
  /// Doubles the slot array and re-places every resident (stop-the-world;
  /// the non-incremental growth path).
  void grow();
  /// Growth policy switch: stop-the-world grow(), or the incremental
  /// start/force-finish/ladder machinery, at the 7/8 trigger.
  void maybe_grow();
  /// Watermark bookkeeping after a successful insert; triggers a
  /// seed-rotating rehash when the overload policy says so.
  void note_insert(std::size_t place_distance);
  /// Rotates the seed and re-places every resident at the same capacity
  /// (pointer-stable). Force-finishes any in-flight migration first — the
  /// old array's stored hashes would go stale under the new seed.
  void rehash_with_fresh_seed();

  // --- incremental migration (Options::incremental) ----------------------
  // The previous slot array, kept fully probe-able while it drains. Only
  // removal ever touches it (nothing is placed or displaced into it), so
  // it stays a valid robin-hood table and slots [0, cursor) stay empty:
  // backward-shift pulls entries *toward* the removal slot and vacates the
  // tail of the run, never refilling the drained prefix.
  struct OldTable {
    std::size_t mask = 0;
    std::size_t cursor = 0;     ///< slots [0, cursor) are drained
    std::size_t residents = 0;  ///< entries not yet migrated
    Tags tags;
    Words hashes;
    Words index;  ///< PCB slab index per slot

    [[nodiscard]] std::size_t capacity() const noexcept { return mask + 1; }
    [[nodiscard]] std::size_t probe_distance(std::size_t i) const noexcept {
      return (i - (hashes[i] & mask)) & mask;
    }
  };

  /// Scalar probe of the draining old array (no group probing: the old
  /// array is cold by construction and dies within one migration).
  [[nodiscard]] Probe find_slot_old(std::uint32_t h,
                                    const net::FlowKey& key) const noexcept;
  /// Backward-shift removal in the old array (keeps it robin-hood valid).
  void remove_at_old(std::size_t i);
  /// Allocates the doubled array and swings the current one behind the
  /// drain cursor. Returns false — after stepping the degradation ladder —
  /// if the allocation failed (injected or real).
  bool start_migration();
  /// Migrates up to `budget` residents (and advances the cursor over at
  /// most 64*budget empty slots, so a sparse old array still finishes in
  /// bounded steps). No-op when not migrating.
  void migrate_batch(std::size_t budget);
  /// Drains the old array completely (the rare stop-the-world fallback:
  /// a second growth trigger or a seed rotation mid-migration).
  void finish_migration();
  /// Ladder rung 1: growth refused by the allocator. Blocks growth and
  /// arms an exponentially backed-off retry countdown (in inserts).
  void defer_migration();

  Options options_;
  std::size_t mask_ = 0;   ///< capacity - 1 (capacity is a power of two)
  std::size_t size_ = 0;   ///< residents across the live and old arrays

  // Overload / shedding state (see DESIGN.md "Adversarial resilience").
  std::uint64_t watermark_ = 0;
  std::uint64_t overload_rehashes_ = 0;
  std::uint64_t inserts_shed_ = 0;
  std::uint64_t inserts_refused_ = 0;  ///< no cell: allocator refused
  std::uint64_t inserts_since_rehash_ = 0;
  std::uint64_t rehash_cooldown_ = 0;  ///< 0 until the first rehash
  // Degradation-ladder state (incremental mode only).
  bool grow_blocked_ = false;       ///< allocation for the next array failed
  std::uint64_t grow_backoff_ = 0;  ///< current retry backoff, in inserts
  std::uint64_t grow_retry_in_ = 0;  ///< inserts until the next retry
  // Structure-of-arrays slot storage. Parallel, all sized capacity():
  // a probe touches tags_ (1 B/slot), then hashes_ for the robin-hood
  // bound (4 B/slot), and on a fingerprint match index_ (4 B/slot) and
  // the PCB it names, whose line 0 holds the key. A hit is a tag group and
  // an index line, loaded in parallel, then the PCB.
  Tags tags_;
  Words hashes_;
  Words index_;
  std::unique_ptr<OldTable> old_;  ///< non-null while migrating
  PcbSlab slab_;  ///< every resident PCB, live and old arrays alike
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_FLAT_DEMUXER_H_
