// Flood detection and graceful degradation: the watermark monitors must
// fire under a crafted collision flood, rotate the seed, and restore
// balanced placement — and must NEVER fire on benign traffic, however
// skewed, so the paper's unkeyed results stay untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/flat_demuxer.h"
#include "core/sequent_hash.h"
#include "core/validate.h"
#include "net/hashers.h"
#include "sim/collision_flood.h"

namespace tcpdemux::core {
namespace {

std::vector<net::FlowKey> random_keys(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<net::FlowKey> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(net::FlowKey{net::Ipv4Addr(rng() | 1u),
                                static_cast<std::uint16_t>(rng() | 1u),
                                net::Ipv4Addr(rng() | 1u),
                                static_cast<std::uint16_t>(rng() | 1u)});
  }
  return keys;
}

TEST(OverloadRehash, SequentRotatesSeedAndRebalancesUnderChainFlood) {
  SequentDemuxer demuxer(
      {19, {net::HasherKind::kXorFold, 0}, true, /*rehash_on_overload=*/true,
       0});
  ASSERT_FALSE(demuxer.hash_spec().keyed());

  // Craft keys that all land on chain 7 under the demuxer's CURRENT
  // placement — exactly what an attacker probing an unkeyed table does.
  sim::CollisionFloodParams params;
  params.count = 600;
  const auto flood = sim::craft_colliding_keys(
      params,
      [&](const net::FlowKey& k) {
        return net::hash_chain(demuxer.hash_spec(), k, demuxer.chains());
      },
      7);

  for (const net::FlowKey& key : flood) {
    ASSERT_NE(demuxer.insert(key), nullptr);
  }
  const ResilienceStats r = demuxer.resilience();
  EXPECT_GE(r.overload_rehashes, 1u);
  // The rotation keyed the table; crafted keys now spread across chains.
  EXPECT_TRUE(demuxer.hash_spec().keyed());
  const auto sizes = demuxer.chain_sizes();
  const std::size_t longest = *std::max_element(sizes.begin(), sizes.end());
  EXPECT_LE(longest, demuxer.watermark_limit());
  // Cooldown hysteresis: the flood keeps inserting after the first
  // rotation, but rotations stay rare, not one-per-insert.
  EXPECT_LE(r.overload_rehashes, 4u);

  // Pointer-stable rebuild: every key still found, structure well-formed.
  EXPECT_EQ(demuxer.size(), flood.size());
  for (const net::FlowKey& key : flood) {
    EXPECT_NE(demuxer.lookup(key).pcb, nullptr);
  }
  EXPECT_EQ(validate_demuxer(demuxer).to_string(), "");
}

TEST(OverloadRehash, SequentNeverFiresOnBenignTraffic) {
  SequentDemuxer demuxer(
      {19, {net::HasherKind::kCrc32, 0}, true, /*rehash_on_overload=*/true,
       0});
  for (const net::FlowKey& key : random_keys(4000, 0xbe9191)) {
    demuxer.insert(key);
  }
  const ResilienceStats r = demuxer.resilience();
  EXPECT_EQ(r.overload_rehashes, 0u);
  EXPECT_FALSE(demuxer.hash_spec().keyed());
  EXPECT_LE(r.watermark, r.watermark_limit);
}

TEST(OverloadRehash, SequentWithoutPolicyOnlyReportsWatermark) {
  // rehash_on_overload defaults off: the monitor is observability only.
  SequentDemuxer demuxer({19, {net::HasherKind::kXorFold, 0}, true, false, 0});
  sim::CollisionFloodParams params;
  params.count = 300;
  const auto flood = sim::craft_colliding_keys(
      params,
      [&](const net::FlowKey& k) {
        return net::hash_chain(demuxer.hash_spec(), k, demuxer.chains());
      },
      3);
  for (const net::FlowKey& key : flood) demuxer.insert(key);
  const ResilienceStats r = demuxer.resilience();
  EXPECT_EQ(r.overload_rehashes, 0u);
  EXPECT_EQ(r.watermark, flood.size());  // the pileup is visible in stats
  EXPECT_GT(r.watermark, r.watermark_limit);
  EXPECT_FALSE(demuxer.hash_spec().keyed());
}

TEST(OverloadRehash, FlatRotatesSeedAndRebalancesUnderSlotFlood) {
  FlatDemuxer demuxer(
      {4096, {net::HasherKind::kCrc32, 0}, /*rehash_on_overload=*/true, 0});

  // Target one home slot of the open-addressed table: the probe run grows
  // linearly until the watermark trips.
  sim::CollisionFloodParams params;
  params.count = 200;
  const auto mask = static_cast<std::uint32_t>(demuxer.capacity() - 1);
  const auto flood = sim::craft_colliding_keys(
      params,
      [&](const net::FlowKey& k) {
        return net::mix32_avalanche(net::hash_flow(demuxer.hash_spec(), k)) &
               mask;
      },
      42);

  for (const net::FlowKey& key : flood) {
    ASSERT_NE(demuxer.insert(key), nullptr);
  }
  const ResilienceStats r = demuxer.resilience();
  EXPECT_GE(r.overload_rehashes, 1u);
  EXPECT_LE(r.overload_rehashes, 4u);
  EXPECT_TRUE(demuxer.hash_spec().keyed());
  EXPECT_LE(demuxer.max_probe_distance(), demuxer.watermark_limit());

  EXPECT_EQ(demuxer.size(), flood.size());
  for (const net::FlowKey& key : flood) {
    EXPECT_NE(demuxer.lookup(key).pcb, nullptr);
  }
  EXPECT_EQ(validate_demuxer(demuxer).to_string(), "");
}

TEST(OverloadRehash, Flat16RotatesSeedAndGroupProbeStillFindsEveryKey) {
  // Same slot flood as the flat test, but with SIMD group probing on: the
  // post-rotation table must answer every lookup through the grouped path.
  FlatDemuxer demuxer({4096,
                       {net::HasherKind::kCrc32, 0},
                       /*rehash_on_overload=*/true, 0,
                       /*group_probe=*/true});
  sim::CollisionFloodParams params;
  params.count = 200;
  const auto mask = static_cast<std::uint32_t>(demuxer.capacity() - 1);
  const auto flood = sim::craft_colliding_keys(
      params,
      [&](const net::FlowKey& k) {
        return net::mix32_avalanche(net::hash_flow(demuxer.hash_spec(), k)) &
               mask;
      },
      42);

  for (const net::FlowKey& key : flood) {
    ASSERT_NE(demuxer.insert(key), nullptr);
  }
  const ResilienceStats r = demuxer.resilience();
  EXPECT_GE(r.overload_rehashes, 1u);
  EXPECT_TRUE(demuxer.hash_spec().keyed());
  EXPECT_EQ(demuxer.size(), flood.size());
  for (const net::FlowKey& key : flood) {
    EXPECT_NE(demuxer.lookup(key).pcb, nullptr);
  }
  EXPECT_EQ(validate_demuxer(demuxer).to_string(), "");
}

TEST(OverloadRehash, FlatNeverFiresOnBenignTraffic) {
  FlatDemuxer demuxer(
      {1024, {net::HasherKind::kCrc32, 0}, /*rehash_on_overload=*/true, 0});
  for (const net::FlowKey& key : random_keys(6000, 0xbe9192)) {
    demuxer.insert(key);
  }
  const ResilienceStats r = demuxer.resilience();
  EXPECT_EQ(r.overload_rehashes, 0u);
  EXPECT_FALSE(demuxer.hash_spec().keyed());
}

TEST(OverloadRehash, RehashSurvivesChurnAfterRotation) {
  // Insert flood, trigger rotation, then erase half and reinsert fresh
  // benign keys: counters stay sane and the validator stays clean.
  SequentDemuxer demuxer(
      {19, {net::HasherKind::kXorFold, 0}, true, true, 0});
  sim::CollisionFloodParams params;
  params.count = 400;
  const auto flood = sim::craft_colliding_keys(
      params,
      [&](const net::FlowKey& k) {
        return net::hash_chain(demuxer.hash_spec(), k, demuxer.chains());
      },
      0);
  for (const net::FlowKey& key : flood) demuxer.insert(key);
  ASSERT_GE(demuxer.resilience().overload_rehashes, 1u);

  for (std::size_t i = 0; i < flood.size(); i += 2) {
    EXPECT_TRUE(demuxer.erase(flood[i]));
  }
  for (const net::FlowKey& key : random_keys(500, 0xc0ffee)) {
    demuxer.insert(key);
  }
  EXPECT_EQ(validate_demuxer(demuxer).to_string(), "");
  for (std::size_t i = 1; i < flood.size(); i += 2) {
    EXPECT_NE(demuxer.lookup(flood[i]).pcb, nullptr);
  }
}

}  // namespace
}  // namespace tcpdemux::core
