// PcbSlab: fixed-size, cache-line-aligned storage for one table's PCBs.
//
// A table that owns its PCBs one `make_unique` at a time pays twice: every
// insert is a malloc, and every PCB is a 144-byte malloc chunk at a 16-byte
// offset, so a 128-byte PCB usually straddles three cache lines. The slab
// instead carves 2 MiB chunks, mapped straight from the kernel
// (core/huge_pages.h), into 128-byte cells. The first chunk uses base
// pages, so a small table's untouched tail costs no resident memory; every
// later chunk is one 2 MiB-aligned huge page, so a large table's PCB
// touches do not each pay a page walk. Every cell
// is 64-byte aligned, so every PCB is exactly its two cache lines, and it
// is named by a dense 32-bit index that the table stores instead of an
// owning pointer (Cuckoo++ [LeS17]: store a value index, not a pointer).
//
// Lifetime: the Pcb at an index is valid from allocate() until release() of
// that index; its storage is then reused. Released cells are handed out
// again LIFO, so the most recently freed (still warm) cell goes to the next
// connection. The slab maps a chunk only when every mapped cell is in use,
// and reserves the free list's capacity for the new cells at that moment:
// nothing else in allocate() or release() touches the heap.
//
// Under AddressSanitizer, cells that are not handed out are poisoned, so a
// read through a stale Pcb* is still reported (as use-after-poison) even
// though the memory stays mapped.
#ifndef TCPDEMUX_CORE_PCB_SLAB_H_
#define TCPDEMUX_CORE_PCB_SLAB_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/pcb.h"
#include "net/flow_key.h"

namespace tcpdemux::core {

class PcbSlab {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t{2} << 20;
  static constexpr std::uint32_t kPcbsPerChunk = kChunkBytes / sizeof(Pcb);

  PcbSlab() = default;
  ~PcbSlab();
  PcbSlab(const PcbSlab&) = delete;
  PcbSlab& operator=(const PcbSlab&) = delete;

  /// Makes the next allocate() infallible, mapping a chunk when every
  /// mapped cell is in use. Returns false, with the slab unchanged, if the
  /// chunk or the free list's room for it cannot be had.
  [[nodiscard]] bool reserve_one();

  /// Constructs a PCB in a free cell and returns its index. Requires a
  /// successful reserve_one() since the previous allocate().
  std::uint32_t allocate(const net::FlowKey& key, std::uint64_t conn_id);

  /// Destroys the PCB at `index` and returns its cell to the free list.
  void release(std::uint32_t index) noexcept;

  [[nodiscard]] Pcb& at(std::uint32_t index) noexcept {
    return chunks_[index / kPcbsPerChunk][index % kPcbsPerChunk];
  }
  [[nodiscard]] const Pcb& at(std::uint32_t index) const noexcept {
    return chunks_[index / kPcbsPerChunk][index % kPcbsPerChunk];
  }

  /// Cells [0, high_water()) have been handed out at least once; every
  /// valid index is below it.
  [[nodiscard]] std::uint32_t high_water() const noexcept {
    return high_water_;
  }
  /// PCBs currently allocated (high-water mark minus freed cells).
  [[nodiscard]] std::size_t live() const noexcept {
    return high_water_ - free_.size();
  }
  [[nodiscard]] std::size_t chunks() const noexcept { return chunks_.size(); }
  /// Released cells awaiting reuse, the next to be handed out last.
  [[nodiscard]] std::span<const std::uint32_t> free_list() const noexcept {
    return free_;
  }
  /// Bytes of PCB storage up to the high-water mark. Mapped cells beyond
  /// it are untouched, hence not resident, and are not counted.
  [[nodiscard]] std::size_t bytes_used() const noexcept {
    return std::size_t{high_water_} * sizeof(Pcb);
  }

 private:
  /// Whether chunk `c` is huge-page backed: every chunk but the first.
  [[nodiscard]] static constexpr bool huge_chunk(std::size_t c) noexcept {
    return c != 0;
  }

  std::vector<Pcb*> chunks_;  ///< each kChunkBytes; all but [0] 2 MiB-aligned
  std::vector<std::uint32_t> free_;  ///< LIFO; capacity == mapped cells
  std::uint32_t high_water_ = 0;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_PCB_SLAB_H_
