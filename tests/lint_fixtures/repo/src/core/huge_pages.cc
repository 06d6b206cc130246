// Fixture copy of the mapping-discipline exempt file: the one helper that
// maps, advises and unmaps memory.
#include "core/huge_pages.h"

#include <sys/mman.h>

namespace tcpdemux::core {

void* map_pages(unsigned long bytes) {
  void* const p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  madvise(p, bytes, MADV_HUGEPAGE);
  return p;
}

void unmap_pages(void* addr, unsigned long bytes) { munmap(addr, bytes); }

}  // namespace tcpdemux::core
