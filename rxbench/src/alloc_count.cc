#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace {

// Single-threaded benchmark: a plain counter is exact.
std::uint64_t g_allocs = 0;

void* allocate(std::size_t size) noexcept {
  ++g_allocs;
  return std::malloc(size == 0 ? 1 : size);
}

void* allocate(std::size_t size, std::align_val_t align) noexcept {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  return std::aligned_alloc(a, rounded == 0 ? a : rounded);
}

template <typename... Align>
void* allocate_or_throw(std::size_t size, Align... align) {
  if (void* p = allocate(size, align...)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace rxbench {
std::uint64_t alloc_count() noexcept { return g_allocs; }
}  // namespace rxbench

// Every replaceable form, so no allocation escapes the count and every
// block is released by the matching allocator.
void* operator new(std::size_t n) { return allocate_or_throw(n); }
void* operator new[](std::size_t n) { return allocate_or_throw(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate_or_throw(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate_or_throw(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return allocate(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return allocate(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
