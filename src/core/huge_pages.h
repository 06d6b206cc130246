// Huge-page-backed anonymous mappings for table storage.
//
// At millions of PCBs every line a lookup touches is also a TLB miss, and
// under a hypervisor each TLB miss is a nested page walk. Transparent huge
// pages remove most of those walks, but only for memory that is 2 MiB
// aligned and, on hosts where THP is `madvise`-only, advised before the
// first touch. A plain `mmap` of 2 MiB is page-aligned, not 2 MiB-aligned,
// so it never becomes a huge page.
//
// map_pages() is the one place the tree maps, advises and unmaps memory
// (the `mapping-discipline` lint rule holds this). With `huge` it maps the
// region 2 MiB-aligned (map 2 MiB more, trim the unaligned head and tail)
// and advises MADV_HUGEPAGE; without it, it maps whole base pages. Either
// way the memory is zero-filled and costs no resident memory until it is
// touched. Whether to ask for huge pages is the caller's policy: a huge
// page is faulted in whole, so small tables keep base pages.
//
// SlotArray applies that policy to the flat tables' slot arrays: from
// 2 MiB up it maps huge pages; below that it takes zeroed heap memory, as
// a std::vector would, because a table of a few thousand PCBs is rebuilt
// often (a connection set-up per host) and fresh mappings would make each
// build pay mmap, munmap and a page fault per array page.
//
// Under AddressSanitizer the mapping gets at least 64 bytes of tail beyond
// `bytes`, and that tail is poisoned, so reading past the end of a mapped
// array is reported just as for a heap array.
#ifndef TCPDEMUX_CORE_HUGE_PAGES_H_
#define TCPDEMUX_CORE_HUGE_PAGES_H_

#include <cstddef>
#include <cstdlib>
#include <memory>  // std::bad_alloc
#include <type_traits>
#include <utility>

namespace tcpdemux::core {

inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Maps `bytes` (> 0) of zero-filled anonymous memory; nullptr if the
/// kernel refuses. With `huge` the start is 2 MiB-aligned and the region
/// is advised MADV_HUGEPAGE before anything touches it.
[[nodiscard]] void* map_pages(std::size_t bytes, bool huge) noexcept;

/// Unmaps a region from map_pages(); `bytes` and `huge` must match.
void unmap_pages(void* addr, std::size_t bytes, bool huge) noexcept;

/// True if the kernel accepts MADV_HUGEPAGE (built with THP support). The
/// advice is only a hint: mappings work either way. Test hook.
[[nodiscard]] bool huge_page_advice_supported() noexcept;

/// A fixed-size, zero-initialized array of trivial `T`: a slot array of
/// the flat tables. Arrays of kHugePageBytes or more are mapped huge-page
/// backed; smaller ones come from the heap. Move-only; the storage is
/// released on destruction.
template <typename T>
class SlotArray {
  static_assert(std::is_trivial_v<T>, "the storage is never constructed");

 public:
  SlotArray() noexcept = default;
  /// `n` zeroed elements. Throws std::bad_alloc if the storage is refused.
  explicit SlotArray(std::size_t n) : size_(n) {
    if (n == 0) return;
    data_ = static_cast<T*>(huge() ? map_pages(bytes(), true)
                                   : std::calloc(n, sizeof(T)));
    if (data_ == nullptr) throw std::bad_alloc();
  }
  ~SlotArray() {
    if (data_ == nullptr) return;
    if (huge()) {
      unmap_pages(data_, bytes(), true);
    } else {
      std::free(data_);
    }
  }
  SlotArray(SlotArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  SlotArray& operator=(SlotArray&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[i];
  }

 private:
  [[nodiscard]] std::size_t bytes() const noexcept { return size_ * sizeof(T); }
  [[nodiscard]] bool huge() const noexcept { return bytes() >= kHugePageBytes; }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_HUGE_PAGES_H_
