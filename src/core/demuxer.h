// Demuxer: the common interface of every TCP PCB-lookup algorithm.
//
// The paper's figure of merit — the expected number of PCBs examined per
// received packet — is first-class here: every lookup() reports exactly how
// many PCBs (cache entries and chain nodes) were inspected.
//
// Accounting convention (matches the paper's analysis, §3.1–§3.4):
//   * probing a single-entry cache costs 1 examined PCB;
//   * each list node whose key is compared costs 1 (the found node counts);
//   * a cache hit therefore costs exactly 1; a BSD miss costs
//     1 + scan-length, giving the paper's 1 + (N+1)/2 average.
#ifndef TCPDEMUX_CORE_DEMUXER_H_
#define TCPDEMUX_CORE_DEMUXER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "core/fault_inject.h"
#include "core/pcb.h"
#include "net/flow_key.h"
#include "report/telemetry.h"

namespace tcpdemux::core {

/// How the arriving segment is classified for cache-probe ordering.
///
/// §3.3 footnote 5: "Examining the receive-side cache makes most sense for
/// TCP data packets, while examining the send-side cache first makes most
/// sense for TCP acknowledgement packets." Only the send/receive-cache
/// demuxer distinguishes these; all other algorithms ignore the kind.
enum class SegmentKind : std::uint8_t {
  kData,  ///< carries payload (e.g. a transaction query)
  kAck,   ///< pure transport-level acknowledgement
};

/// Outcome of one demultiplexing operation.
struct LookupResult {
  Pcb* pcb = nullptr;            ///< nullptr if no PCB matches
  std::uint32_t examined = 0;    ///< PCBs inspected (paper's metric)
  bool cache_hit = false;        ///< satisfied by a single-entry cache
};

/// Cumulative per-demuxer counters.
struct DemuxStats {
  std::uint64_t lookups = 0;
  std::uint64_t found = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t pcbs_examined = 0;

  [[nodiscard]] double mean_examined() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(pcbs_examined) /
                              static_cast<double>(lookups);
  }
  [[nodiscard]] double hit_rate() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(lookups);
  }
  void record(const LookupResult& r) noexcept {
    ++lookups;
    if (r.pcb != nullptr) ++found;
    if (r.cache_hit) ++cache_hits;
    pcbs_examined += r.examined;
  }
  void reset() noexcept { *this = DemuxStats{}; }
};

/// Hostile-traffic counters (see DESIGN.md "Adversarial resilience").
/// Algorithms without overload machinery report all-zero defaults.
struct ResilienceStats {
  std::uint64_t overload_rehashes = 0;  ///< seed rotations forced by floods
  std::uint64_t inserts_shed = 0;       ///< inserts refused at max_pcbs cap
  std::uint64_t watermark = 0;       ///< worst chain length / probe distance
  std::uint64_t watermark_limit = 0;  ///< current overload trigger threshold
  std::uint64_t inserts_refused = 0;  ///< inserts the allocator refused
};

/// Abstract PCB-lookup algorithm. Owns its PCBs.
class Demuxer {
 public:
  virtual ~Demuxer() = default;

  /// Creates and registers a PCB for `key`. Returns nullptr if a PCB with
  /// an identical key already exists. The demuxer owns the returned PCB.
  virtual Pcb* insert(const net::FlowKey& key) = 0;

  /// Removes and destroys the PCB with exactly `key`. Returns false if
  /// absent. Any cache entries referencing it are invalidated.
  virtual bool erase(const net::FlowKey& key) = 0;

  /// Finds the PCB for an arriving segment, counting examined PCBs.
  /// Updates internal caches / list order as the algorithm dictates and
  /// records the result in stats().
  virtual LookupResult lookup(const net::FlowKey& key, SegmentKind kind) = 0;

  /// Convenience overload treating the segment as data. Derived classes
  /// re-expose it with `using Demuxer::lookup;`.
  LookupResult lookup(const net::FlowKey& key) {
    return lookup(key, SegmentKind::kData);
  }

  /// Demultiplexes a burst of packets, writing results[i] for keys[i].
  /// `results.size()` must be >= `keys.size()`. Results and stats are
  /// identical to issuing `keys.size()` lookup() calls in order — batching
  /// is purely a latency optimization. Overrides pipeline the work (hash
  /// every key, prefetch every target bucket/tag line, then probe) so a
  /// burst's DRAM misses overlap instead of serializing; this default is
  /// the correct scalar loop for algorithms with no such override.
  virtual void lookup_batch(std::span<const net::FlowKey> keys,
                            std::span<LookupResult> results,
                            SegmentKind kind = SegmentKind::kData) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      results[i] = lookup(keys[i], kind);
    }
  }

  /// Hints that a lookup() of `key` follows shortly, so an implementation
  /// may start that lookup's first memory loads now and overlap them with
  /// the caller's own work (the receive path calls it before parsing and
  /// checksumming the frame). Changes nothing observable: no stats,
  /// telemetry, cache or list order, migration step or allocation. The
  /// default does nothing.
  virtual void prefetch(const net::FlowKey& key) const noexcept { (void)key; }

  /// Notes that the host transmitted a segment on `pcb`'s connection.
  /// Only the send/receive-cache algorithm observes this (its "last sent"
  /// side); the default is a no-op.
  virtual void note_sent(Pcb* pcb) { (void)pcb; }

  /// Best wildcard match for `key` (BSD in_pcblookup semantics), used for
  /// SYN delivery to listening sockets. Does not update caches and is not
  /// part of the measured fast path; `examined` is still reported.
  /// SocketTable::find and erase also come through here, so every
  /// implementation probes the key's home chain, slot run or shard first
  /// and returns an exact match from there without sweeping the table.
  virtual LookupResult lookup_wildcard(const net::FlowKey& key) = 0;

  /// Number of PCBs currently registered.
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Approximate resident bytes: the PCBs themselves plus the structure's
  /// own headers (chain heads, caches, index tables). §3.4 prices the
  /// Sequent algorithm's only cost as "the memory required for the
  /// hash-chain headers"; this makes that cost measurable.
  [[nodiscard]] virtual std::size_t memory_bytes() const {
    return size() * sizeof(Pcb);
  }

  /// Calls `fn` for every PCB (order unspecified).
  virtual void for_each_pcb(
      const std::function<void(const Pcb&)>& fn) const = 0;

  /// Algorithm name, e.g. "sequent(h=19,crc32)".
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] const DemuxStats& stats() const noexcept { return stats_; }
  /// Virtual so aggregating backends reset their children's ledgers too —
  /// otherwise the merged telemetry view and the parent stats() would
  /// drift apart after a reset.
  virtual void reset_stats() noexcept { stats_.reset(); }

  /// Hostile-traffic counters; all-zero for algorithms without overload
  /// machinery (the default).
  [[nodiscard]] virtual ResilienceStats resilience() const { return {}; }

  /// Advances any in-progress incremental table migration by one bounded
  /// batch (growing backends built with the `incremental` option; see
  /// DESIGN.md "Incremental resize & degradation ladder"). Returns true
  /// while migration work remains after the call. Harness hook: the fuzz
  /// suites (TCPDEMUX_FUZZ_RESIZE_EVERY) and bench/wallclock_resize drive
  /// migrations to completion with it; normal operation never needs to —
  /// insert/erase/lookup each retire their own batch.
  virtual bool migration_step() { return false; }

  /// The per-demuxer telemetry registry (see report/telemetry.h): event
  /// counters plus opt-in examined-PCB / probe-length histograms. Every
  /// lookup() override funnels its result through note_lookup(), so the
  /// registry and stats() can never drift apart. Returned by value: the
  /// lookup counters (lookups/found/cache_hits) are synced from stats_ at
  /// read time — they are the same ledger by definition, and keeping one
  /// copy means the default lookup path touches no telemetry state at all
  /// (the 2% overhead budget; see DESIGN.md "Observability").
  ///
  /// Virtual so aggregating backends (sharded) can return a merged view
  /// built from their children; the merge happens into a fresh value on
  /// every call, so repeated reads never re-add already-synced counters.
  [[nodiscard]] virtual report::Telemetry telemetry() const {
    report::Telemetry t = *telemetry_;
    t.set_lookup_counters(stats_.lookups, stats_.found, stats_.cache_hits);
    return t;
  }
  /// Switches the registry's histograms on/off for this run (default off:
  /// the paper-faithful fast path pays one predictable branch only).
  /// Virtual so aggregating backends propagate the switch to every child.
  virtual void enable_telemetry_histograms(bool on) noexcept {
    telemetry_histograms_ = on;
    telemetry_->enable_histograms(on);
  }
  virtual void reset_telemetry() noexcept { telemetry_->reset(); }

  /// Sizes of the structure's natural partitions — hash-chain lengths for
  /// the chained algorithms, the single list length for the linear-scan
  /// ones. Always sums to size(); telemetry snapshots derive occupancy
  /// skew from it.
  [[nodiscard]] virtual std::vector<std::size_t> occupancy() const {
    return {size()};
  }

 protected:
  /// Next dense connection id; shared by all subclasses' insert paths.
  [[nodiscard]] std::uint64_t next_conn_id() noexcept { return conn_seq_++; }

  /// The allocation gate of every insert path, passed after the duplicate
  /// check and before any mutation. Polls the fault injector and, if it
  /// passes, `reserve` — the backend's own reservation of what the insert
  /// will allocate. Either failing counts the refusal in telemetry and
  /// returns true: the caller backs out with no state change.
  template <typename Reserve>
  [[nodiscard]] bool insert_refused(Reserve&& reserve) {
    if (!FaultInjector::instance().poll_alloc() && reserve()) return false;
    telemetry_->on_refuse();
    return true;
  }
  [[nodiscard]] bool insert_refused() {
    return insert_refused([] { return true; });
  }

  /// Single funnel for lookup accounting: records `r` in stats_ and, when
  /// histograms are on, in the telemetry registry. Subclasses call this
  /// instead of touching stats_ directly so the two paths stay bit-exact
  /// (fuzz-enforced). The gate bool lives HERE, not in telemetry_: it
  /// shares stats_'s cache line, so the default (histograms-off) path has
  /// exactly the pre-telemetry memory footprint — one predicted branch,
  /// zero extra lines touched.
  void note_lookup(const LookupResult& r) noexcept {
    stats_.record(r);
    if (telemetry_histograms_) [[unlikely]] {
      note_lookup_telemetry(r);
    }
  }
  /// Histogram slow path, out of line (demuxer.cc) so the inlined fast
  /// path stays at pre-telemetry code size in every lookup loop.
  void note_lookup_telemetry(const LookupResult& r) noexcept;

  DemuxStats stats_;
  bool telemetry_histograms_ = false;
  /// Behind a pointer, not inline: the registry is ~1 KiB of histogram
  /// arrays, and an inline member would push every subclass's hot members
  /// (chain heads, slot arrays) a KiB past the vptr/stats_ cache line the
  /// lookup path already owns — measurably slowing the cheapest lookups
  /// (connection_id) even with histograms off. The pointer keeps the base
  /// at pre-telemetry size; only mutation hooks and readers dereference.
  std::unique_ptr<report::Telemetry> telemetry_ =
      std::make_unique<report::Telemetry>();

 private:
  std::uint64_t conn_seq_ = 0;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_DEMUXER_H_
