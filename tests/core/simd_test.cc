// core/simd.h: the 16-wide group probe must agree with a byte-at-a-time
// oracle on every backend, and the always-compiled SWAR fallback must agree
// with whichever native backend was selected — so the scalar path is
// exercised in CI even on SSE2/NEON machines.
#include "core/simd.h"

#include <array>
#include <cstdint>

#include "gtest/gtest.h"

namespace tcpdemux::core {
namespace {

std::uint32_t oracle_match(const std::uint8_t* tags, std::size_t n,
                           std::uint8_t tag) {
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (tags[i] == tag) mask |= 1U << i;
  }
  return mask;
}

// Deterministic xorshift so the sweep covers varied byte patterns without
// depending on seeded std:: machinery.
std::uint32_t next_rand(std::uint32_t& state) {
  state ^= state << 13;
  state ^= state >> 17;
  state ^= state << 5;
  return state;
}

TEST(SimdTest, BackendIsKnown) {
  const auto backend = simd_backend();
  EXPECT_TRUE(backend == "sse2" || backend == "neon" || backend == "swar")
      << backend;
}

TEST(SimdTest, GroupMatchAgainstOracleExhaustiveTags) {
  std::array<std::uint8_t, kGroupWidth> tags{};
  for (std::size_t i = 0; i < tags.size(); ++i) {
    tags[i] = static_cast<std::uint8_t>(0x80 | (i * 17));
  }
  tags[3] = 0;
  tags[9] = 0;
  for (int t = 0; t < 256; ++t) {
    const auto tag = static_cast<std::uint8_t>(t);
    const std::uint32_t expect = oracle_match(tags.data(), tags.size(), tag);
    EXPECT_EQ(group_match(tags.data(), tag), expect) << "tag=" << t;
    EXPECT_EQ(group_match_swar(tags.data(), tag), expect) << "tag=" << t;
  }
}

TEST(SimdTest, GroupMatchRandomSweepNativeEqualsSwar) {
  std::uint32_t state = 0x9e3779b9;
  std::array<std::uint8_t, kGroupWidth> tags{};
  for (int round = 0; round < 5000; ++round) {
    for (auto& t : tags) t = static_cast<std::uint8_t>(next_rand(state));
    const auto probe = static_cast<std::uint8_t>(next_rand(state));
    // Force some hits: overwrite a random slot with the probe byte.
    tags[next_rand(state) % kGroupWidth] = probe;
    const std::uint32_t expect = oracle_match(tags.data(), tags.size(), probe);
    EXPECT_EQ(group_match(tags.data(), probe), expect);
    EXPECT_EQ(group_match_swar(tags.data(), probe), expect);
    EXPECT_EQ(group_empty(tags.data()), group_empty_swar(tags.data()));
  }
}

TEST(SimdTest, GroupEmptyFindsZeroTags) {
  std::array<std::uint8_t, kGroupWidth> tags{};
  tags.fill(0xab);
  EXPECT_EQ(group_empty(tags.data()), 0U);
  tags[0] = 0;
  tags[15] = 0;
  EXPECT_EQ(group_empty(tags.data()), (1U << 0) | (1U << 15));
  EXPECT_EQ(group_empty_swar(tags.data()), (1U << 0) | (1U << 15));
}

TEST(SimdTest, MatchMaskNeverExceedsGroupWidth) {
  std::array<std::uint8_t, kGroupWidth> tags{};
  tags.fill(0x80);
  EXPECT_EQ(group_match(tags.data(), 0x80), 0xffffU);
  EXPECT_EQ(group_match_swar(tags.data(), 0x80), 0xffffU);
}

}  // namespace
}  // namespace tcpdemux::core
