// Registry-wide miss-rate sweep: every spec family answers a lookup
// stream with absent keys blended at 0%, 50%, and 100%, and must (a)
// account every hit and miss exactly in stats(), and (b) produce
// bit-identical results and stats through lookup_batch — so the miss
// path (where the flat table's early exit earns its keep) is exercised
// for every backend, scalar and batched, from day one.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/demux_registry.h"

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, static_cast<std::uint8_t>(i >> 16),
                                    static_cast<std::uint8_t>(i >> 8),
                                    static_cast<std::uint8_t>(i & 0xff)),
                      20000};
}

// One spec per registered family (plus hashed variants of the new
// tables), so a future algorithm that forgets miss accounting or batch
// parity fails here by name.
const char* kSpecs[] = {
    "bsd",           "mtf",
    "srcache",       "sequent:19:crc32",
    "hashed_mtf",    "dynamic",
    "connection_id", "rcu:19:crc32",
    "flat16:256",    "flat16:256:crc32",
    "flat16:256:crc32c",
    "sharded:4:flat16:256",
    "sharded:2:sequent:19:crc32",
};

constexpr std::uint32_t kPresent = 200;
constexpr std::uint32_t kLookups = 1000;

// Deterministic present/absent interleave: miss_pct percent of the
// stream misses, spread evenly (the bench's MissSequencer pattern).
std::vector<net::FlowKey> make_stream(int miss_pct, std::uint32_t* misses) {
  std::vector<net::FlowKey> stream;
  stream.reserve(kLookups);
  int acc = 0;
  *misses = 0;
  for (std::uint32_t i = 0; i < kLookups; ++i) {
    acc += miss_pct;
    if (acc >= 100) {
      acc -= 100;
      stream.push_back(key(1000000 + i));  // never inserted
      ++*misses;
    } else {
      stream.push_back(key(i % kPresent));
    }
  }
  return stream;
}

class MissSweepTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MissSweepTest, HitAndMissCountersExactAtEveryRate) {
  for (const int miss_pct : {0, 50, 100}) {
    const auto demuxer = make_demuxer(*parse_demux_spec(GetParam()));
    for (std::uint32_t i = 0; i < kPresent; ++i) {
      ASSERT_NE(demuxer->insert(key(i)), nullptr) << i;
    }
    std::uint32_t misses = 0;
    const auto stream = make_stream(miss_pct, &misses);
    demuxer->reset_stats();
    for (const auto& k : stream) {
      const auto r = demuxer->lookup(k, SegmentKind::kData);
      if (r.pcb != nullptr) {
        EXPECT_EQ(r.pcb->key, k);
      }
    }
    const auto& stats = demuxer->stats();
    EXPECT_EQ(stats.lookups, kLookups) << "miss_pct=" << miss_pct;
    EXPECT_EQ(stats.found, kLookups - misses) << "miss_pct=" << miss_pct;
    EXPECT_LE(stats.cache_hits, stats.found) << "miss_pct=" << miss_pct;
  }
}

TEST_P(MissSweepTest, BatchAgreesWithScalarAtEveryRate) {
  for (const int miss_pct : {0, 50, 100}) {
    const auto scalar = make_demuxer(*parse_demux_spec(GetParam()));
    const auto batched = make_demuxer(*parse_demux_spec(GetParam()));
    for (std::uint32_t i = 0; i < kPresent; ++i) {
      ASSERT_NE(scalar->insert(key(i)), nullptr);
      ASSERT_NE(batched->insert(key(i)), nullptr);
    }
    std::uint32_t misses = 0;
    const auto stream = make_stream(miss_pct, &misses);
    scalar->reset_stats();
    batched->reset_stats();

    std::vector<LookupResult> scalar_results;
    scalar_results.reserve(stream.size());
    for (const auto& k : stream) {
      scalar_results.push_back(scalar->lookup(k, SegmentKind::kData));
    }
    std::vector<LookupResult> batch_results(stream.size());
    batched->lookup_batch(stream, batch_results, SegmentKind::kData);

    for (std::size_t i = 0; i < stream.size(); ++i) {
      EXPECT_EQ(batch_results[i].pcb == nullptr,
                scalar_results[i].pcb == nullptr)
          << "miss_pct=" << miss_pct << " i=" << i;
      EXPECT_EQ(batch_results[i].examined, scalar_results[i].examined)
          << "miss_pct=" << miss_pct << " i=" << i;
      EXPECT_EQ(batch_results[i].cache_hit, scalar_results[i].cache_hit)
          << "miss_pct=" << miss_pct << " i=" << i;
    }
    EXPECT_EQ(batched->stats().lookups, scalar->stats().lookups);
    EXPECT_EQ(batched->stats().found, scalar->stats().found);
    EXPECT_EQ(batched->stats().cache_hits, scalar->stats().cache_hits);
    EXPECT_EQ(batched->stats().pcbs_examined, scalar->stats().pcbs_examined);
    EXPECT_EQ(batched->stats().found,
              static_cast<std::uint64_t>(kLookups) - misses);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, MissSweepTest,
                         ::testing::ValuesIn(kSpecs),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ':' || c == '@' || c == '=') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace tcpdemux::core
