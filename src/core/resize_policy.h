// Shared tuning for bounded-pause incremental resize (see DESIGN.md
// "Incremental resize & degradation ladder"). Every growing backend
// (dynamic, flat16) drains its outgoing table with the same batch
// discipline so the worst-case per-operation pause is O(batch) regardless
// of table size.
#ifndef TCPDEMUX_CORE_RESIZE_POLICY_H_
#define TCPDEMUX_CORE_RESIZE_POLICY_H_

#include <cstddef>
#include <cstdint>

namespace tcpdemux::core {

/// Entries migrated per insert/erase (the operations that already paid for
/// a structural write); bounds the tail of the mutation path.
inline constexpr std::size_t kMigrateBatch = 8;

/// Entries migrated per lookup — kept minimal because lookups are the
/// latency-critical path the ladder exists to protect.
inline constexpr std::size_t kMigrateLookupBatch = 1;

/// Empty slots/buckets the drain cursor may skip per unit of batch budget
/// before yielding; bounds a batch's work even over sparse regions.
inline constexpr std::size_t kMigrateScanFactor = 64;

/// Allocator-retry backoff window, in inserts: after a new-table
/// allocation fails, the next attempt waits kGrowBackoffMin inserts,
/// doubling per failure up to kGrowBackoffMax (ladder rung 1,
/// defer-and-retry). Rung 2 — shed at the hard watermark — engages only
/// while growth stays blocked.
inline constexpr std::uint64_t kGrowBackoffMin = 16;
inline constexpr std::uint64_t kGrowBackoffMax = 4096;

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_RESIZE_POLICY_H_
