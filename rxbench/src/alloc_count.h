// Heap-allocation counter for the traced run.
//
// alloc_count.cc replaces the global operator new family in this binary
// only; every replacement bumps one counter. The runner reads it before
// and after each traced span, so a span's allocations are exact counts
// that repeat from run to run on the same input.
#ifndef RXBENCH_ALLOC_COUNT_H_
#define RXBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace rxbench {

/// Heap allocations made through operator new since the process started.
[[nodiscard]] std::uint64_t alloc_count() noexcept;

}  // namespace rxbench

#endif  // RXBENCH_ALLOC_COUNT_H_
