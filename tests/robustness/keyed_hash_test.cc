// Keyed-hashing correctness: SipHash reference vectors, seed-0 paper
// parity, the two-tier seeding contract from net/hashers.h, and the
// seed grammar (hash_spec_name / parse_hash_spec_token round trips).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/demux_registry.h"
#include "net/flow_key.h"
#include "net/hashers.h"
#include "sim/collision_flood.h"

namespace tcpdemux::net {
namespace {

// The official test key: bytes 00 01 .. 0f, little-endian halves.
constexpr std::uint64_t kK0 = 0x0706050403020100ULL;
constexpr std::uint64_t kK1 = 0x0f0e0d0c0b0a0908ULL;

std::vector<std::uint8_t> iota_bytes(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  std::iota(bytes.begin(), bytes.end(), std::uint8_t{0});
  return bytes;
}

std::vector<FlowKey> sample_keys(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<FlowKey> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(FlowKey{Ipv4Addr(rng() | 1u),
                           static_cast<std::uint16_t>(rng() | 1u),
                           Ipv4Addr(rng() | 1u),
                           static_cast<std::uint16_t>(rng() | 1u)});
  }
  return keys;
}

TEST(SipHash, MatchesOfficialSipHash24Vectors) {
  // First rows of the reference vectors_sip64 table (SipHash-2-4, the
  // original parameters) — proves the compression/finalization rounds,
  // length byte, and little-endian packing are exactly the paper's.
  EXPECT_EQ(siphash(iota_bytes(0), kK0, kK1, 2, 4), 0x726fdb47dd0e0e31ULL);
  EXPECT_EQ(siphash(iota_bytes(1), kK0, kK1, 2, 4), 0x74f839c593dc67fdULL);
}

TEST(SipHash, MatchesSipHash13ReferenceVectors) {
  // SipHash-1-3 (the deployed parameterization) under the same key and
  // inputs, cross-checked against the reference implementation. Lengths
  // cover: empty, sub-block, 7/8 tail boundary, one full block (12 = the
  // flow-key size), and block+tail.
  EXPECT_EQ(siphash(iota_bytes(0), kK0, kK1, 1, 3), 0xabac0158050fc4dcULL);
  EXPECT_EQ(siphash(iota_bytes(1), kK0, kK1, 1, 3), 0xc9f49bf37d57ca93ULL);
  EXPECT_EQ(siphash(iota_bytes(7), kK0, kK1, 1, 3), 0xd3927d989bb11140ULL);
  EXPECT_EQ(siphash(iota_bytes(8), kK0, kK1, 1, 3), 0x369095118d299a8eULL);
  EXPECT_EQ(siphash(iota_bytes(12), kK0, kK1, 1, 3), 0x78a384b157b4d9a2ULL);
  EXPECT_EQ(siphash(iota_bytes(15), kK0, kK1, 1, 3), 0xd320d86d2a519956ULL);
}

TEST(KeyedHash, SeedZeroIsBitIdenticalToUnkeyed) {
  // Paper parity: every analytic/differential result in the repo is
  // produced with seed 0, which must be THE unkeyed function, not merely
  // an equivalent one.
  const auto keys = sample_keys(200, 0xfee1);
  for (const HasherKind kind : kAllHashers) {
    const HashSpec spec{kind, 0};
    for (const FlowKey& key : keys) {
      ASSERT_EQ(hash_flow(spec, key), hash_flow(kind, key))
          << hasher_name(kind);
    }
  }
}

TEST(KeyedHash, NonzeroSeedChangesAlmostEveryHash) {
  const auto keys = sample_keys(200, 0xfee2);
  for (const HasherKind kind : kAllHashers) {
    const HashSpec keyed{kind, 0x5eed};
    std::size_t changed = 0;
    for (const FlowKey& key : keys) {
      if (hash_flow(keyed, key) != hash_flow(kind, key)) ++changed;
    }
    // A 32-bit rehash leaves a key fixed with probability 2^-32; allow a
    // couple of coincidences, no more.
    EXPECT_GE(changed, keys.size() - 2) << hasher_name(kind);
  }
}

TEST(KeyedHash, DistinctSeedsDisagree) {
  const auto keys = sample_keys(100, 0xfee3);
  for (const HasherKind kind : {HasherKind::kSipHash, HasherKind::kCrc32}) {
    std::size_t changed = 0;
    for (const FlowKey& key : keys) {
      if (hash_flow({kind, 1}, key) != hash_flow({kind, 2}, key)) ++changed;
    }
    EXPECT_GE(changed, keys.size() - 2) << hasher_name(kind);
  }
}

TEST(KeyedHash, PostMixSeedingCannotSeparateFullHashCollisions) {
  // The documented limitation (net/hashers.h): legacy hashers seed by
  // post-mixing the 32-bit value, so keys engineered to share the full
  // xor_fold hash collide under EVERY xor_fold seed...
  sim::CollisionFloodParams params;
  params.count = 64;
  const auto keys = sim::craft_xorfold_collisions(params, 0xabad1dea);
  ASSERT_EQ(keys.size(), 64u);
  for (const std::uint32_t seed : {0u, 1u, 0x5eedu, 0xffffffffu}) {
    const HashSpec spec{HasherKind::kXorFold, seed};
    const std::uint32_t h0 = hash_flow(spec, keys.front());
    for (const FlowKey& key : keys) {
      ASSERT_EQ(hash_flow(spec, key), h0) << "seed " << seed;
    }
  }
}

TEST(KeyedHash, SipHashScattersFullHashCollisions) {
  // ...while the keyed PRF tier scatters the same crafted population.
  sim::CollisionFloodParams params;
  params.count = 1024;
  const auto keys = sim::craft_xorfold_collisions(params, 0xabad1dea);
  constexpr std::uint32_t kChains = 19;
  const HashSpec spec{HasherKind::kSipHash, 0x5eed};
  std::vector<std::size_t> chains(kChains, 0);
  for (const FlowKey& key : keys) ++chains[hash_chain(spec, key, kChains)];
  std::size_t max_chain = 0;
  for (const std::size_t n : chains) {
    EXPECT_GT(n, 0u);
    max_chain = std::max(max_chain, n);
  }
  // Uniform would be ~54 per chain; anything near the 1024-key pileup the
  // unkeyed table suffers means the PRF failed.
  EXPECT_LT(max_chain, 128u);
}

TEST(KeyedHash, NextSeedNeverReturnsZeroOrFixpoint) {
  std::uint32_t seed = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t rotated = next_seed(seed);
    ASSERT_NE(rotated, 0u);
    ASSERT_NE(rotated, seed);
    seed = rotated;
  }
  EXPECT_EQ(next_seed(7), next_seed(7));  // deterministic
}

TEST(KeyedHash, SpecNameFormatsSeedAsHexSuffix) {
  EXPECT_EQ(hash_spec_name({HasherKind::kCrc32, 0}), "crc32");
  EXPECT_EQ(hash_spec_name({HasherKind::kSipHash, 0xdeadbeef}),
            "siphash@deadbeef");
  EXPECT_EQ(hash_spec_name({HasherKind::kXorFold, 0x1}), "xor_fold@1");
  EXPECT_EQ(hash_spec_name({HasherKind::kJenkins, 0xffffffff}),
            "jenkins@ffffffff");
}

TEST(KeyedHash, SpecNameRoundTripsThroughParser) {
  for (const HasherKind kind : kAllHashers) {
    for (const std::uint32_t seed : {0u, 1u, 0xabcu, 0xdeadbeefu}) {
      const HashSpec spec{kind, seed};
      const auto parsed = core::parse_hash_spec_token(hash_spec_name(spec));
      ASSERT_TRUE(parsed.has_value()) << hash_spec_name(spec);
      EXPECT_EQ(*parsed, spec) << hash_spec_name(spec);
    }
  }
}

TEST(KeyedHash, ParserRejectsMalformedSeedTokens) {
  EXPECT_FALSE(core::parse_hash_spec_token("crc32@").has_value());
  EXPECT_FALSE(core::parse_hash_spec_token("crc32@xyz").has_value());
  EXPECT_FALSE(core::parse_hash_spec_token("crc32@123456789").has_value());
  EXPECT_FALSE(core::parse_hash_spec_token("crc32@12 ").has_value());
  EXPECT_FALSE(core::parse_hash_spec_token("sha256@12").has_value());
  EXPECT_FALSE(core::parse_hash_spec_token("@12").has_value());
  // "@0" is the explicit unkeyed spelling, not an error.
  const auto unkeyed = core::parse_hash_spec_token("crc32@0");
  ASSERT_TRUE(unkeyed.has_value());
  EXPECT_FALSE(unkeyed->keyed());
}

TEST(KeyedHash, RegistryThreadsSeedsIntoDemuxerNames) {
  const struct {
    const char* spec;
    const char* name;
  } kCases[] = {
      {"sequent:19:siphash@beef", "sequent(h=19,siphash@beef)"},
      {"sequent:19:crc32@0", "sequent(h=19,crc32)"},
      {"sequent:7:xor_fold@a:rehash:max=500",
       "sequent(h=7,xor_fold@a,rehash,max=500)"},
      {"dynamic:5:jenkins@12:max=100", "dynamic(h=5,jenkins@12,max=100)"},
      {"rcu:101:siphash@2:nocache", "rcu(h=101,siphash@2,nocache)"},
      {"flat16:256:crc32:rehash:max=128",
       "flat16(cap=256,crc32,rehash,max=128)"},
      {"flat16:64:siphash@beef", "flat16(cap=64,siphash@beef)"},
      {"flat16:256:crc32c:rehash:max=128",
       "flat16(cap=256,crc32c,rehash,max=128)"},
  };
  for (const auto& c : kCases) {
    const auto config = core::parse_demux_spec(c.spec);
    ASSERT_TRUE(config.has_value()) << c.spec;
    const auto demuxer = core::make_demuxer(*config);
    ASSERT_NE(demuxer, nullptr) << c.spec;
    EXPECT_EQ(demuxer->name(), c.name) << c.spec;
  }
}

TEST(KeyedHash, RegistryRejectsSeedAndOptionMisuse) {
  // hashed_mtf is a frozen paper strawman: no seeds.
  EXPECT_FALSE(core::parse_demux_spec("hashed_mtf:19:crc32@1").has_value());
  // Options gated per algorithm.
  EXPECT_FALSE(core::parse_demux_spec("dynamic:5:crc32:rehash").has_value());
  EXPECT_FALSE(core::parse_demux_spec("rcu:19:crc32:max=4").has_value());
  EXPECT_FALSE(core::parse_demux_spec("flat16:64:crc32:nocache").has_value());
  EXPECT_FALSE(core::parse_demux_spec("bsd:rehash").has_value());
  // Duplicate and malformed options.
  EXPECT_FALSE(
      core::parse_demux_spec("sequent:19:crc32:rehash:rehash").has_value());
  EXPECT_FALSE(core::parse_demux_spec("sequent:19:crc32:max=0").has_value());
  EXPECT_FALSE(core::parse_demux_spec("sequent:19:crc32@zz").has_value());
}

}  // namespace
}  // namespace tcpdemux::net
