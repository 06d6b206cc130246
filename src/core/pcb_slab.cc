#include "core/pcb_slab.h"

#include <sanitizer/asan_interface.h>

#include <memory>
#include <type_traits>

#include "core/huge_pages.h"

namespace tcpdemux::core {

// Cells are recycled without running anything but Pcb's (trivial)
// destructor, and a chunk is unmapped without visiting its cells.
static_assert(std::is_trivially_destructible_v<Pcb>);
static_assert(PcbSlab::kChunkBytes % sizeof(Pcb) == 0);
static_assert(sizeof(Pcb) % 64 == 0, "cells must stay cache-line aligned");

PcbSlab::~PcbSlab() {
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    unmap_pages(chunks_[c], kChunkBytes, huge_chunk(c));
  }
}

bool PcbSlab::reserve_one() {
  if (!free_.empty() || high_water_ < chunks_.size() * kPcbsPerChunk) {
    return true;
  }
  if (chunks_.size() + 1 > UINT32_MAX / kPcbsPerChunk) return false;
  try {
    chunks_.reserve(chunks_.size() + 1);
    free_.reserve((chunks_.size() + 1) * kPcbsPerChunk);
  } catch (const std::bad_alloc&) {
    return false;  // only capacity moved; the slab's contents are unchanged
  }
  void* const chunk = map_pages(kChunkBytes, huge_chunk(chunks_.size()));
  if (chunk == nullptr) return false;
  ASAN_POISON_MEMORY_REGION(chunk, kChunkBytes);
  chunks_.push_back(static_cast<Pcb*>(chunk));
  return true;
}

std::uint32_t PcbSlab::allocate(const net::FlowKey& key,
                                std::uint64_t conn_id) {
  std::uint32_t index = 0;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = high_water_++;
  }
  Pcb* const cell = &at(index);
  ASAN_UNPOISON_MEMORY_REGION(cell, sizeof(Pcb));
  std::construct_at(cell, key, conn_id);
  return index;
}

void PcbSlab::release(std::uint32_t index) noexcept {
  Pcb* const cell = &at(index);
  std::destroy_at(cell);
  ASAN_POISON_MEMORY_REGION(cell, sizeof(Pcb));
  free_.push_back(index);  // capacity reserved when the chunk was mapped
}

}  // namespace tcpdemux::core
