// The adversarial workload generator itself, and the end-to-end claim it
// exists to prove: replaying a collision flood degrades an unkeyed table
// toward the BSD linear scan while the keyed and rehash-on-detect
// configurations keep the paper's O(N/2H) behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "core/demux_registry.h"
#include "net/hashers.h"
#include "sim/collision_flood.h"
#include "sim/replay.h"

namespace tcpdemux::sim {
namespace {

TEST(CollisionFlood, XorfoldCraftProducesDistinctKeysWithEqualHashes) {
  CollisionFloodParams params;
  params.count = 2048;
  const auto keys = craft_xorfold_collisions(params, 0x1234abcd);
  ASSERT_EQ(keys.size(), 2048u);
  std::unordered_set<net::FlowKey> distinct(keys.begin(), keys.end());
  EXPECT_EQ(distinct.size(), keys.size());
  for (const net::FlowKey& key : keys) {
    ASSERT_EQ(net::hash_flow(net::HasherKind::kXorFold, key), 0x1234abcdu);
    EXPECT_EQ(key.local_addr, params.server_addr);
    EXPECT_EQ(key.local_port, params.server_port);
  }
}

TEST(CollisionFlood, CraftCapsAtOneKeyPerForeignPort) {
  CollisionFloodParams params;
  params.count = 100000;  // more than 65535 distinct ports exist
  const auto keys = craft_xorfold_collisions(params, 1);
  EXPECT_EQ(keys.size(), 0xffffu);
}

TEST(CollisionFlood, BruteForceCraftHitsTheRequestedIndex) {
  CollisionFloodParams params;
  params.count = 200;
  const auto index_of = [](const net::FlowKey& k) {
    return net::hash_chain(net::HasherKind::kCrc32, k, 19);
  };
  const auto keys = craft_colliding_keys(params, index_of, 11);
  ASSERT_EQ(keys.size(), 200u);
  std::unordered_set<net::FlowKey> distinct(keys.begin(), keys.end());
  EXPECT_EQ(distinct.size(), keys.size());
  for (const net::FlowKey& key : keys) {
    ASSERT_EQ(index_of(key), 11u);
  }
}

TEST(CollisionFlood, TraceEmbedsAttackAmongBenignConnections) {
  CollisionFloodTraceParams params;
  params.benign.users = 50;
  params.benign.duration = 120.0;
  params.attack_start = 10.0;
  params.attack_duration = 60.0;
  params.arrivals_per_conn = 4;

  CollisionFloodParams craft;
  craft.count = 64;
  const auto attack_keys = craft_xorfold_collisions(craft, 0xfeed);
  const auto flood = generate_collision_flood(params, attack_keys);

  EXPECT_EQ(flood.benign_conns, 50u);
  EXPECT_EQ(flood.trace.connections, 50u + 64u);
  EXPECT_EQ(flood.keys.size(), flood.trace.connections);
  EXPECT_TRUE(flood.trace.valid());

  // Attack connections arrive via kOpen inside the window, each followed
  // by its data arrivals.
  std::size_t opens = 0;
  for (const TraceEvent& e : flood.trace.events) {
    if (e.kind != TraceEventKind::kOpen || e.conn < flood.benign_conns) {
      continue;
    }
    ++opens;
    EXPECT_GE(e.time, params.attack_start);
    EXPECT_LE(e.time, params.attack_start + params.attack_duration);
  }
  EXPECT_EQ(opens, 64u);
  // The attack keys ride at the tail of the key vector, aligned with the
  // re-indexed attack connections.
  for (std::size_t i = 0; i < attack_keys.size(); ++i) {
    EXPECT_EQ(flood.keys[flood.benign_conns + i], attack_keys[i]);
  }
}

TEST(CollisionFlood, ReplayDegradesUnkeyedAndSparesKeyedSequent) {
  CollisionFloodTraceParams params;
  params.benign.users = 60;
  params.benign.duration = 90.0;
  params.attack_start = 5.0;
  params.attack_duration = 45.0;
  params.arrivals_per_conn = 8;

  // Chain-targeted crafting (the attacker watched which chain is slow):
  // a fresh seed re-scatters these, so the rehash-on-detect policy can
  // recover. Full-hash xor_fold collisions would defeat the post-mix tier
  // — that stronger adversary is covered by the flat-table test below and
  // needs kSipHash (see net/hashers.h).
  CollisionFloodParams craft;
  craft.count = 1500;
  const auto attack_keys = craft_colliding_keys(
      craft,
      [](const net::FlowKey& k) {
        return net::hash_chain(net::HasherKind::kXorFold, k, 19);
      },
      7);
  const auto flood = generate_collision_flood(params, attack_keys);

  const auto run = [&](const char* spec) {
    const auto config = core::parse_demux_spec(spec);
    EXPECT_TRUE(config.has_value()) << spec;
    const auto demuxer = core::make_demuxer(*config);
    return replay_trace(flood.trace, flood.keys, *demuxer);
  };

  const ReplayResult unkeyed = run("sequent:19:xor_fold:nocache");
  const ReplayResult keyed = run("sequent:19:siphash@5eed:nocache");
  const ReplayResult rehashing = run("sequent:19:xor_fold:nocache:rehash");

  ASSERT_EQ(unkeyed.misses, 0u);
  ASSERT_EQ(keyed.misses, 0u);
  ASSERT_EQ(rehashing.misses, 0u);

  // All 1500 attack connections share one chain unkeyed: the mean scan
  // collapses toward a linear search. SipHash keeps the crafted keys
  // spread, so the mean examined count stays within a small factor of the
  // benign ideal (~size/2H plus cache effects).
  EXPECT_GT(unkeyed.overall.mean(), 10.0 * keyed.overall.mean());
  // Rehash-on-detect starts unkeyed, takes the hit until the watermark
  // fires, then recovers — an order of magnitude better than never
  // detecting, even counting the pre-detection arrivals.
  EXPECT_LT(rehashing.overall.mean(), unkeyed.overall.mean() / 2.0);
}

TEST(CollisionFlood, ReplayDegradesUnkeyedAndSparesKeyedFlat) {
  CollisionFloodTraceParams params;
  params.benign.users = 60;
  params.benign.duration = 90.0;
  params.attack_start = 5.0;
  params.attack_duration = 45.0;
  params.arrivals_per_conn = 8;

  // Full-32-bit-hash collisions defeat the flat table's avalanche
  // finalizer and every post-mixed seed — only the PRF tier recovers.
  CollisionFloodParams craft;
  craft.count = 1200;
  const auto attack_keys = craft_xorfold_collisions(craft, 0xdead0002);
  const auto flood = generate_collision_flood(params, attack_keys);

  const auto run = [&](const char* spec) {
    const auto config = core::parse_demux_spec(spec);
    EXPECT_TRUE(config.has_value()) << spec;
    const auto demuxer = core::make_demuxer(*config);
    return replay_trace(flood.trace, flood.keys, *demuxer);
  };

  const ReplayResult unkeyed = run("flat16:4096:xor_fold");
  const ReplayResult keyed = run("flat16:4096:siphash@5eed");

  ASSERT_EQ(unkeyed.misses, 0u);
  ASSERT_EQ(keyed.misses, 0u);
  EXPECT_GT(unkeyed.overall.mean(), 10.0 * (keyed.overall.mean() + 1.0));
}

}  // namespace
}  // namespace tcpdemux::sim
