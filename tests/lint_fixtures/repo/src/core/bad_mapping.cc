// Fixture: mapping-discipline — one positive, one suppressed.
#include <sys/mman.h>

namespace tcpdemux::core {

void* grab(unsigned long bytes) {
  return mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
}

void drop(void* addr, unsigned long bytes) {
  munmap(addr, bytes);  // NOLINT(mapping-discipline)
}

}  // namespace tcpdemux::core
