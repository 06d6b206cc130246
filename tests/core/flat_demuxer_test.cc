// FlatDemuxer unit tests: the open-addressing mechanics the shared
// property/differential suites cannot see from outside — capacity
// rounding, amortized growth, robin-hood probe-distance bounds,
// backward-shift deletion leaving no tombstone residue, and the PCB slab
// (alignment, reuse order, memory price, stale-pointer detection).
#include "core/flat_demuxer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <unordered_set>
#include <vector>

#include "core/validate.h"
#include "net/flow_key.h"

#if defined(__SANITIZE_ADDRESS__)
#define TCPDEMUX_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TCPDEMUX_TEST_ASAN 1
#endif
#endif
#ifndef TCPDEMUX_TEST_ASAN
#define TCPDEMUX_TEST_ASAN 0
#endif

namespace tcpdemux::core {
namespace {

// Distinct keys varying in the address only. Do NOT mirror `i` into the
// port as well: xor_fold XORs address and port words, so a key schedule
// with addr_low = i and port = base + i collapses to a handful of hashes
// (i ^ (base + i) is constant whenever the add carries stay out of the
// way) and every key lands in one probe run.
net::FlowKey key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, static_cast<std::uint8_t>(i >> 16),
                                    static_cast<std::uint8_t>(i >> 8),
                                    static_cast<std::uint8_t>(i & 0xff)),
                      20000};
}

TEST(FlatDemuxerTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlatDemuxer(FlatDemuxer::Options{1}).capacity(), 16u);
  EXPECT_EQ(FlatDemuxer(FlatDemuxer::Options{16}).capacity(), 16u);
  EXPECT_EQ(FlatDemuxer(FlatDemuxer::Options{17}).capacity(), 32u);
  EXPECT_EQ(FlatDemuxer(FlatDemuxer::Options{1000}).capacity(), 1024u);
}

TEST(FlatDemuxerTest, RejectsZeroCapacity) {
  EXPECT_THROW(FlatDemuxer(FlatDemuxer::Options{0}), std::invalid_argument);
}

TEST(FlatDemuxerTest, InsertLookupEraseRoundTrip) {
  FlatDemuxer d;
  Pcb* const p = d.insert(key(1));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(d.insert(key(1)), nullptr) << "duplicate insert must fail";
  const auto r = d.lookup(key(1));
  EXPECT_EQ(r.pcb, p);
  EXPECT_EQ(r.examined, 1u);
  EXPECT_FALSE(r.cache_hit) << "the flat table has no single-entry cache";
  EXPECT_TRUE(d.erase(key(1)));
  EXPECT_FALSE(d.erase(key(1)));
  EXPECT_EQ(d.lookup(key(1)).pcb, nullptr);
  EXPECT_EQ(d.size(), 0u);
}

TEST(FlatDemuxerTest, GrowthKeepsEveryKeyFindableAndPcbPointersStable) {
  FlatDemuxer d(FlatDemuxer::Options{16});
  std::vector<Pcb*> pcbs;
  constexpr std::uint32_t kN = 1000;  // forces several doublings from 16
  for (std::uint32_t i = 0; i < kN; ++i) {
    Pcb* const p = d.insert(key(i));
    ASSERT_NE(p, nullptr) << i;
    pcbs.push_back(p);
  }
  EXPECT_GE(d.capacity(), kN);
  EXPECT_LE(d.size() * 8, d.capacity() * 7) << "load factor bound violated";
  for (std::uint32_t i = 0; i < kN; ++i) {
    EXPECT_EQ(d.lookup(key(i)).pcb, pcbs[i]) << i;
  }
  EXPECT_TRUE(StructuralValidator::validate(d).ok());
}

TEST(FlatDemuxerTest, RobinHoodKeepsMeanProbeCostSmallNearLoadCap) {
  FlatDemuxer d(FlatDemuxer::Options{2048});
  for (std::uint32_t i = 0; i < 1700; ++i) {  // ~83% load, no growth
    ASSERT_NE(d.insert(key(i)), nullptr);
  }
  EXPECT_EQ(d.capacity(), 2048u);
  // Long occupied runs are unavoidable at 83% load (cluster lengths decay
  // only as (alpha*e^(1-alpha))^k ~ 0.984^k), so the max probe distance is
  // cluster-bounded, not logarithmic. What robin-hood guarantees is the
  // distribution: mean displacement stays ~(1 + 1/(1-alpha))/2 ~ 3.4 and
  // the table never degenerates into one key paying the whole cluster.
  std::uint64_t total_examined = 0;
  for (std::uint32_t i = 0; i < 1700; ++i) {
    const auto r = d.lookup(key(i));
    ASSERT_NE(r.pcb, nullptr) << i;
    total_examined += r.examined;
  }
  EXPECT_LE(total_examined, 1700u * 8) << "mean hit cost blew up at 83% load";
  EXPECT_LT(d.max_probe_distance(), d.capacity() / 4)
      << "one probe run spans a quarter of the table";
}

TEST(FlatDemuxerTest, ModerateLoadBoundsWorstCaseProbe) {
  FlatDemuxer d(FlatDemuxer::Options{2048});
  for (std::uint32_t i = 0; i < 1024; ++i) {  // 50% load
    ASSERT_NE(d.insert(key(i)), nullptr);
  }
  EXPECT_EQ(d.capacity(), 2048u);
  EXPECT_LE(d.max_probe_distance(), 64u);
}

TEST(FlatDemuxerTest, ChurnNeverDegradesLookupCost) {
  // Tombstone schemes rot under churn: erased slots keep lengthening probe
  // runs until a rebuild. Backward-shift deletion must keep the examined
  // count flat, so hammer one table with connect/disconnect cycles and
  // compare against a fresh table with the identical final population.
  FlatDemuxer churned(FlatDemuxer::Options{1024});
  for (std::uint32_t round = 0; round < 50; ++round) {
    for (std::uint32_t i = 0; i < 500; ++i) {
      ASSERT_NE(churned.insert(key(i)), nullptr);
    }
    for (std::uint32_t i = 0; i < 500; ++i) {
      ASSERT_TRUE(churned.erase(key(i)));
    }
  }
  for (std::uint32_t i = 0; i < 500; ++i) {
    ASSERT_NE(churned.insert(key(i)), nullptr);
  }
  FlatDemuxer fresh(FlatDemuxer::Options{1024});
  for (std::uint32_t i = 0; i < 500; ++i) {
    ASSERT_NE(fresh.insert(key(i)), nullptr);
  }
  ASSERT_EQ(churned.capacity(), fresh.capacity());
  EXPECT_EQ(churned.max_probe_distance(), fresh.max_probe_distance())
      << "churn left probe-run residue a fresh build does not have";
  for (std::uint32_t i = 0; i < 500; ++i) {
    EXPECT_EQ(churned.lookup(key(i)).examined, fresh.lookup(key(i)).examined)
        << i;
  }
  EXPECT_TRUE(StructuralValidator::validate(churned).ok());
}

TEST(FlatDemuxerTest, ExaminedCountsKeyComparisonsOnly) {
  FlatDemuxer d;
  for (std::uint32_t i = 0; i < 100; ++i) ASSERT_NE(d.insert(key(i)), nullptr);
  // A miss examines only fingerprint-colliding slots: almost always zero.
  std::uint64_t miss_examined = 0;
  constexpr std::uint32_t kMisses = 200;
  for (std::uint32_t i = 0; i < kMisses; ++i) {
    const auto r = d.lookup(key(100000 + i));
    EXPECT_EQ(r.pcb, nullptr);
    miss_examined += r.examined;
  }
  // With 7 fingerprint bits, expected false positives per miss are well
  // under 0.1 at this occupancy; allow a generous margin.
  EXPECT_LE(miss_examined, kMisses / 4);
  // A hit examines at least the found PCB and rarely more.
  const auto hit = d.lookup(key(7));
  ASSERT_NE(hit.pcb, nullptr);
  EXPECT_GE(hit.examined, 1u);
}

TEST(FlatDemuxerTest, ForEachSeesExactlyTheResidents) {
  FlatDemuxer d(FlatDemuxer::Options{64});
  std::unordered_set<net::FlowKey> expected;
  for (std::uint32_t i = 0; i < 40; ++i) {
    d.insert(key(i));
    expected.insert(key(i));
  }
  for (std::uint32_t i = 0; i < 40; i += 2) {
    d.erase(key(i));
    expected.erase(key(i));
  }
  std::size_t seen = 0;
  d.for_each_pcb([&](const Pcb& pcb) {
    ++seen;
    EXPECT_TRUE(expected.contains(pcb.key));
  });
  EXPECT_EQ(seen, expected.size());
}

TEST(FlatDemuxerTest, MemoryBytesPricesSlotArraysAndPcbs) {
  FlatDemuxer d(FlatDemuxer::Options{1024});
  const std::size_t empty = d.memory_bytes();
  // Each slot costs tag + hash + PCB index (9 B), paid up front.
  EXPECT_EQ(empty, sizeof(FlatDemuxer) + 1024 * (1 + 4 + 4));
  for (std::uint32_t i = 0; i < 100; ++i) d.insert(key(i));
  // PCBs are priced up to the slab's high-water mark, not the mapped chunk.
  EXPECT_EQ(d.memory_bytes(), empty + 100 * sizeof(Pcb));
  // Erased cells stay resident for reuse, and reuse moves nothing.
  for (std::uint32_t i = 0; i < 50; ++i) d.erase(key(i));
  EXPECT_EQ(d.memory_bytes(), empty + 100 * sizeof(Pcb));
  for (std::uint32_t i = 1000; i < 1050; ++i) d.insert(key(i));
  EXPECT_EQ(d.memory_bytes(), empty + 100 * sizeof(Pcb));
}

TEST(FlatDemuxerTest, EveryPcbIsCacheLineAligned) {
  FlatDemuxer d(FlatDemuxer::Options{16});
  // Enough PCBs to span two slab chunks and several doublings.
  const std::uint32_t n = PcbSlab::kPcbsPerChunk + 1000;
  for (std::uint32_t i = 0; i < n; ++i) ASSERT_NE(d.insert(key(i)), nullptr);
  for (std::uint32_t i = 0; i < n; i += 3) ASSERT_TRUE(d.erase(key(i)));
  for (std::uint32_t i = 0; i < n; i += 6) ASSERT_NE(d.insert(key(i)), nullptr);
  EXPECT_EQ(d.slab().chunks(), 2u);
  std::size_t misaligned = 0;
  d.for_each_pcb([&](const Pcb& pcb) {
    if (reinterpret_cast<std::uintptr_t>(&pcb) % 64 != 0) ++misaligned;
  });
  EXPECT_EQ(misaligned, 0u) << "a PCB straddles an extra cache line";
}

TEST(FlatDemuxerTest, ErasedPcbStorageIsReusedLastInFirstOut) {
  FlatDemuxer d;
  for (std::uint32_t i = 0; i < 8; ++i) ASSERT_NE(d.insert(key(i)), nullptr);
  Pcb* const second = d.lookup(key(2)).pcb;
  Pcb* const fifth = d.lookup(key(5)).pcb;
  ASSERT_TRUE(d.erase(key(2)));
  ASSERT_TRUE(d.erase(key(5)));
  // A Pcb* is valid until its erase; the storage then goes to the next
  // connection, most recently freed (warmest) first.
  EXPECT_EQ(d.insert(key(100)), fifth);
  EXPECT_EQ(d.insert(key(101)), second);
  EXPECT_EQ(d.slab().high_water(), 8u);
  EXPECT_EQ(d.lookup(key(100)).pcb->key, key(100));
  EXPECT_TRUE(StructuralValidator::validate(d).ok());
}

// Slab memory stays mapped after an erase, so only poisoning lets
// AddressSanitizer still catch a read through a stale Pcb*.
TEST(FlatDemuxerDeathTest, ReadThroughErasedPcbIsReportedUnderAsan) {
#if !TCPDEMUX_TEST_ASAN
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  FlatDemuxer d;
  Pcb* const stale = d.insert(key(1));
  ASSERT_NE(stale, nullptr);
  ASSERT_TRUE(d.erase(key(1)));
  EXPECT_DEATH(
      {
        const volatile std::uint64_t* id = &stale->conn_id;
        (void)*id;
      },
      "use-after-poison");
#endif
}

TEST(FlatDemuxerTest, NameReportsCapacityAndHasher) {
  FlatDemuxer d(FlatDemuxer::Options{256, net::HasherKind::kCrc32});
  EXPECT_EQ(d.name(), "flat16(cap=256,crc32)");
}

// While an incremental migration drains, residents still in the old array
// are found by the same group probe as the live array's. The keys are
// chosen by their home slot in the 64-slot array that becomes the old one:
//   * 16 keys homed at slot 63 occupy slots 63 and 0..14, so their probe
//     runs wrap the array end;
//   * 20 keys homed at slot 8 follow them in slots 15..34, so their runs
//     start in the group at slot 0 and cross into the group at slot 16;
//   * 20 keys homed at slots 36..55, one each, fill the array to the 7/8
//     growth trigger.
// Robin-hood keeps each cluster in insertion order, and the drain moves
// the lowest occupied slot first, so the newest members of each cluster
// stay in the old array longest; the probes below visit them first.
TEST(FlatDemuxerTest, DrainingArrayFindsEveryResident) {
  static constexpr std::size_t kOldCapacity = 64;
  const auto fill = [](FlatDemuxer& d) {
    std::vector<net::FlowKey> wrap;
    std::vector<net::FlowKey> straddle;
    std::vector<net::FlowKey> fillers;
    std::vector<bool> filled(kOldCapacity, false);
    for (std::uint32_t i = 0; fillers.size() < 20 || wrap.size() < 16 ||
                              straddle.size() < 20;
         ++i) {
      const net::FlowKey k = key(i);
      const std::size_t home =
          net::mix32_avalanche(net::hash_flow(d.hash_spec(), k)) &
          (kOldCapacity - 1);
      if (home == 63 && wrap.size() < 16) {
        wrap.push_back(k);
      } else if (home == 8 && straddle.size() < 20) {
        straddle.push_back(k);
      } else if (home >= 36 && home <= 55 && !filled[home]) {
        filled[home] = true;
        fillers.push_back(k);
      }
    }
    for (const auto* group : {&wrap, &straddle, &fillers}) {
      for (const net::FlowKey& k : *group) EXPECT_NE(d.insert(k), nullptr);
    }
    EXPECT_FALSE(d.migrating());
    EXPECT_EQ(d.capacity(), kOldCapacity);
    // The 57th resident doubles the table; that insert drains one batch
    // (8 residents: wrapped members of the slot-63 cluster).
    EXPECT_NE(d.insert(key(1U << 23)), nullptr);
    EXPECT_TRUE(d.migrating());
    EXPECT_EQ(d.migration_debt(), 48u);
    EXPECT_EQ(validate_demuxer(d).to_string(), "");
    // Newest first: the order the probes below visit them.
    std::vector<net::FlowKey> order(wrap.rbegin(), wrap.rend());
    order.insert(order.end(), straddle.rbegin(), straddle.rend());
    order.insert(order.end(), fillers.begin(), fillers.end());
    order.push_back(key(1U << 23));
    return order;
  };

  // A duplicate insert probes both arrays and changes nothing, so every
  // old resident is probed for in the same state.
  FlatDemuxer dup(FlatDemuxer::Options{.initial_capacity = kOldCapacity,
                                       .incremental = true});
  const std::vector<net::FlowKey> keys = fill(dup);
  for (const net::FlowKey& k : keys) {
    EXPECT_EQ(dup.insert(k), nullptr) << k.to_string();
  }
  EXPECT_EQ(dup.size(), keys.size());
  EXPECT_EQ(dup.migration_debt(), 48u);
  EXPECT_EQ(validate_demuxer(dup).to_string(), "");

  // Each lookup finds its key, then migrates one resident.
  FlatDemuxer looked(FlatDemuxer::Options{.initial_capacity = kOldCapacity,
                                          .incremental = true});
  fill(looked);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i < 40) {
      EXPECT_TRUE(looked.migrating()) << i;
    }
    const LookupResult r = looked.lookup(keys[i]);
    ASSERT_NE(r.pcb, nullptr) << keys[i].to_string();
    EXPECT_EQ(r.pcb->key, keys[i]);
    EXPECT_EQ(validate_demuxer(looked).to_string(), "") << i;
  }

  // Each erase removes its key, then migrates a batch of eight.
  FlatDemuxer erased(FlatDemuxer::Options{.initial_capacity = kOldCapacity,
                                          .incremental = true});
  fill(erased);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i < 5) {
      EXPECT_TRUE(erased.migrating()) << i;
    }
    ASSERT_TRUE(erased.erase(keys[i])) << keys[i].to_string();
    EXPECT_EQ(erased.lookup(keys[i]).pcb, nullptr);
    EXPECT_EQ(erased.size(), keys.size() - i - 1);
    EXPECT_EQ(validate_demuxer(erased).to_string(), "") << i;
  }
}

TEST(FlatDemuxerTest, BatchMatchesScalarExactly) {
  FlatDemuxer a(FlatDemuxer::Options{128});
  FlatDemuxer b(FlatDemuxer::Options{128});
  for (std::uint32_t i = 0; i < 300; ++i) {  // spans a growth
    a.insert(key(i));
    b.insert(key(i));
  }
  std::vector<net::FlowKey> keys;
  for (std::uint32_t i = 0; i < 64; ++i) keys.push_back(key(i * 7 % 400));
  std::vector<LookupResult> batch(keys.size());
  b.lookup_batch(keys, batch, SegmentKind::kData);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto scalar = a.lookup(keys[i]);
    EXPECT_EQ(batch[i].pcb == nullptr, scalar.pcb == nullptr) << i;
    EXPECT_EQ(batch[i].examined, scalar.examined) << i;
  }
  EXPECT_EQ(a.stats().lookups, b.stats().lookups);
  EXPECT_EQ(a.stats().pcbs_examined, b.stats().pcbs_examined);
}

}  // namespace
}  // namespace tcpdemux::core
