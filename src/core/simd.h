// SIMD group-probe portability shim.
//
// The group-probed flat16 table filters a 16-slot group of 1-byte
// fingerprint tags per probe step with one vector compare. All vector
// intrinsics go through this header so they appear in exactly one audited
// place (the repo lint's simd-discipline rule enforces this) and toolchains
// without SSE2/NEON degrade to a scalar 8-byte SWAR path instead of a build
// break.
//
// Backend selection is compile-time — `simd_backend()` reports which one
// was chosen so tests and benches can verify it at runtime. Defining
// TCPDEMUX_SIMD_FORCE_SWAR forces the scalar path on any architecture;
// the `*_swar` entry points are additionally always compiled and
// unit-tested against the native path, so the fallback cannot rot on
// machines where it is not the default.
#ifndef TCPDEMUX_CORE_SIMD_H_
#define TCPDEMUX_CORE_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#if !defined(TCPDEMUX_SIMD_FORCE_SWAR)
#if defined(__SSE2__)
#include <emmintrin.h>  // NOLINT(simd-discipline)
#define TCPDEMUX_SIMD_SSE2 1
#elif defined(__aarch64__) && (defined(__ARM_NEON) || defined(__ARM_NEON__))
#include <arm_neon.h>  // NOLINT(simd-discipline)
#define TCPDEMUX_SIMD_NEON 1
#endif
#endif

namespace tcpdemux::core {

/// Number of 1-byte fingerprint tags examined by one group probe.
inline constexpr std::size_t kGroupWidth = 16;

namespace simd_detail {

// Per-byte equality mask for one 64-bit lane: returns a word with 0x80 in
// every byte of `word` equal to `byte`, 0x00 elsewhere. The (x & 0x7f..) +
// 0x7f.. trick never carries across byte boundaries, so the mask is exact
// per byte (the classic `(v - 0x01..) & ~v & 0x80..` zero-byte test is not:
// a borrow from a zero byte can flag its neighbour).
[[nodiscard]] inline constexpr std::uint64_t eq_mask8(std::uint64_t word,
                                                      std::uint8_t byte) noexcept {
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  const std::uint64_t x = word ^ (0x0101010101010101ULL * byte);
  return ~(((x & kLow7) + kLow7) | x | kLow7);
}

// Compacts an eq_mask8 result (0x80 per matching byte) into an 8-bit mask,
// bit i set iff byte i matched. The multiply places byte i's 0x80 bit at
// bit 56+i; terms that overflow 2^64 wrap into bits < 56 and are shifted
// out, so the result is exact.
[[nodiscard]] inline constexpr std::uint32_t movemask8(std::uint64_t mask) noexcept {
  return static_cast<std::uint32_t>((mask * 0x0002040810204081ULL) >> 56);
}

}  // namespace simd_detail

/// Scalar 16-wide group match: bit i of the result is set iff tags[i] ==
/// tag. Always compiled (and differentially tested against `group_match`)
/// regardless of the selected backend.
[[nodiscard]] inline std::uint32_t group_match_swar(const std::uint8_t* tags,
                                                    std::uint8_t tag) noexcept {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::memcpy(&lo, tags, sizeof lo);
  std::memcpy(&hi, tags + 8, sizeof hi);
  return simd_detail::movemask8(simd_detail::eq_mask8(lo, tag)) |
         (simd_detail::movemask8(simd_detail::eq_mask8(hi, tag)) << 8);
}

#if defined(TCPDEMUX_SIMD_SSE2)

[[nodiscard]] inline std::uint32_t group_match(const std::uint8_t* tags,
                                               std::uint8_t tag) noexcept {
  const __m128i group =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags));  // NOLINT(simd-discipline)
  const __m128i eq =
      _mm_cmpeq_epi8(group, _mm_set1_epi8(static_cast<char>(tag)));  // NOLINT(simd-discipline)
  return static_cast<std::uint32_t>(_mm_movemask_epi8(eq));  // NOLINT(simd-discipline)
}

[[nodiscard]] constexpr std::string_view simd_backend() noexcept {
  return "sse2";
}

#elif defined(TCPDEMUX_SIMD_NEON)

[[nodiscard]] inline std::uint32_t group_match(const std::uint8_t* tags,
                                               std::uint8_t tag) noexcept {
  const uint8x16_t eq = vceqq_u8(vld1q_u8(tags), vdupq_n_u8(tag));  // NOLINT(simd-discipline)
  // NEON has no movemask; weight each matching lane by its bit position
  // and horizontally add each half.
  alignas(16) static constexpr std::uint8_t kBits[16] = {
      1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t weighted = vandq_u8(eq, vld1q_u8(kBits));  // NOLINT(simd-discipline)
  return static_cast<std::uint32_t>(vaddv_u8(vget_low_u8(weighted))) |  // NOLINT(simd-discipline)
         (static_cast<std::uint32_t>(vaddv_u8(vget_high_u8(weighted)))  // NOLINT(simd-discipline)
          << 8);
}

[[nodiscard]] constexpr std::string_view simd_backend() noexcept {
  return "neon";
}

#else

[[nodiscard]] inline std::uint32_t group_match(const std::uint8_t* tags,
                                               std::uint8_t tag) noexcept {
  return group_match_swar(tags, tag);
}

[[nodiscard]] constexpr std::string_view simd_backend() noexcept {
  return "swar";
}

#endif

/// Bitmask of empty slots (tag 0x00) in a 16-slot group.
[[nodiscard]] inline std::uint32_t group_empty(const std::uint8_t* tags) noexcept {
  return group_match(tags, 0);
}

[[nodiscard]] inline std::uint32_t group_empty_swar(const std::uint8_t* tags) noexcept {
  return group_match_swar(tags, 0);
}

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_SIMD_H_
