#include "core/huge_pages.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

namespace tcpdemux::core {
namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr std::size_t kRedzone = 64;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr std::size_t kRedzone = 64;
#else
constexpr std::size_t kRedzone = 0;
#endif
#else
constexpr std::size_t kRedzone = 0;
#endif

std::size_t round_up(std::size_t n, std::size_t align) noexcept {
  return (n + align - 1) / align * align;
}

/// Bytes actually mapped for a `bytes`-byte request.
std::size_t mapped_length(std::size_t bytes, bool huge) noexcept {
  const std::size_t align =
      huge ? kHugePageBytes : static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return round_up(bytes + kRedzone, align);
}

void* map_anonymous(std::size_t length) noexcept {
  void* const p = mmap(nullptr, length, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? nullptr : p;
}

}  // namespace

void* map_pages(std::size_t bytes, bool huge) noexcept {
  const std::size_t length = mapped_length(bytes, huge);
  void* region = nullptr;
  if (!huge) {
    region = map_anonymous(length);
    if (region == nullptr) return nullptr;
  } else {
    // The kernel aligns mappings to base pages only: over-map by one huge
    // page and trim, so [region, region + length) starts on a 2 MiB line.
    auto* const raw = static_cast<std::uint8_t*>(
        map_anonymous(length + kHugePageBytes));
    if (raw == nullptr) return nullptr;
    const auto addr = reinterpret_cast<std::uintptr_t>(raw);
    const std::size_t head = round_up(addr, kHugePageBytes) - addr;
    auto* const aligned = raw + head;
    if (head != 0) munmap(raw, head);
    munmap(aligned + length, kHugePageBytes - head);  // never empty
    // Advice, not a request: a kernel without THP still maps the region.
    (void)madvise(aligned, length, MADV_HUGEPAGE);
    region = aligned;
  }
  ASAN_POISON_MEMORY_REGION(static_cast<std::uint8_t*>(region) + bytes,
                            length - bytes);
  return region;
}

void unmap_pages(void* addr, std::size_t bytes, bool huge) noexcept {
  const std::size_t length = mapped_length(bytes, huge);
  ASAN_UNPOISON_MEMORY_REGION(addr, length);
  munmap(addr, length);
}

bool huge_page_advice_supported() noexcept {
  static const bool supported = [] {
    void* const probe = map_anonymous(kHugePageBytes);
    if (probe == nullptr) return false;
    const bool ok = madvise(probe, kHugePageBytes, MADV_HUGEPAGE) == 0;
    munmap(probe, kHugePageBytes);
    return ok;
  }();
  return supported;
}

}  // namespace tcpdemux::core
