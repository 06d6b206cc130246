// Invariant-validated differential fuzzing for every registry-listed
// demuxer.
//
// Drives long randomized insert/lookup/erase/lookup_wildcard/lookup_batch
// sequences through each algorithm against a
// naive reference map, asserting exact behavioural parity on every
// operation and running the StructuralValidator after every mutation —
// the whole point is that a dangling per-chain cache pointer or a
// miscounted chain is caught on the operation that plants it, not 50k
// operations later when a lookup finally trips over it.
//
// Two key regimes run the same op mix:
//   * random pool — benign traffic (the original suite);
//   * adversarial pool — mostly closed-form xor_fold full-hash collisions
//     (sim::craft_xorfold_collisions), so chained tables fuzz with one
//     giant chain and the flat table with one saturated probe run, and the
//     keyed/rehash configurations fuzz across their defense machinery.
//
// Budget: TCPDEMUX_FUZZ_OPS operations per spec (default 100000, the
// ci/check.sh acceptance floor). TCPDEMUX_FUZZ_SEED reseeds the whole run
// for soak testing; failures print the seed so any run is reproducible.
// TCPDEMUX_FUZZ_ALLOC_EVERY=N (default 0 = off) arms the allocation-
// failure injector to refuse every N-th insert-path allocation, proving
// recovery from memory pressure mid-sequence never corrupts a structure.
// TCPDEMUX_FUZZ_RESIZE_EVERY=N (default 0 = off) forces an explicit
// incremental-migration step (Demuxer::migration_step) every N ops and
// validates immediately after, so the two-table invariants (drained
// prefix, residents reconciliation, cross-table uniqueness) are exercised
// at every drain phase the "incremental" specs can reach — combine with
// ALLOC_EVERY to fuzz the degradation ladder mid-migration.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/demux_registry.h"
#include "core/demuxer.h"
#include "core/fault_inject.h"
#include "core/validate.h"
#include "net/flow_key.h"
#include "sim/collision_flood.h"

namespace tcpdemux::core {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

// A pool of distinct fully-specified keys. Ops pick keys from the pool so
// the live set stays bounded and inserts collide with existing keys often
// enough to exercise the duplicate-insert path.
std::vector<net::FlowKey> make_key_pool(std::size_t n, std::mt19937& rng) {
  std::unordered_set<net::FlowKey> seen;
  std::vector<net::FlowKey> pool;
  pool.reserve(n);
  std::uniform_int_distribution<std::uint32_t> addr(1, 0xfffffffe);
  std::uniform_int_distribution<std::uint32_t> port(1, 0xffff);
  while (pool.size() < n) {
    const net::FlowKey k{net::Ipv4Addr(addr(rng)),
                         static_cast<std::uint16_t>(port(rng)),
                         net::Ipv4Addr(addr(rng)),
                         static_cast<std::uint16_t>(port(rng))};
    if (seen.insert(k).second) pool.push_back(k);
  }
  return pool;
}

// 160 full-hash xor_fold collisions + 32 random keys: collided enough to
// degenerate every unkeyed structure, mixed enough that erase/lookup still
// cross chains.
std::vector<net::FlowKey> make_adversarial_pool(std::mt19937& rng) {
  sim::CollisionFloodParams params;
  params.count = 160;
  auto pool = sim::craft_xorfold_collisions(params, 0x600dcafe);
  for (const net::FlowKey& k : make_key_pool(32, rng)) pool.push_back(k);
  return pool;
}

void run_fuzz_ops(const std::string& spec,
                  const std::vector<net::FlowKey>& pool) {
  const std::uint64_t ops = env_u64("TCPDEMUX_FUZZ_OPS", 100000);
  const std::uint64_t seed =
      env_u64("TCPDEMUX_FUZZ_SEED", 0x5ca1ab1e) ^
      std::hash<std::string>{}(spec);
  const std::uint64_t alloc_every = env_u64("TCPDEMUX_FUZZ_ALLOC_EVERY", 0);
  const std::uint64_t resize_every =
      env_u64("TCPDEMUX_FUZZ_RESIZE_EVERY", 0);
  SCOPED_TRACE("spec=" + spec + " ops=" + std::to_string(ops) +
               " seed=" + std::to_string(seed) +
               " alloc_every=" + std::to_string(alloc_every) +
               " resize_every=" + std::to_string(resize_every));

  const auto config = parse_demux_spec(spec);
  ASSERT_TRUE(config.has_value()) << spec;
  const auto demuxer = make_demuxer(*config);
  ASSERT_NE(demuxer, nullptr);
  // Histograms on for the whole run: the end-of-run differential check
  // demands the telemetry path agrees bit-exactly with DemuxStats.
  demuxer->enable_telemetry_histograms(true);

  auto& injector = FaultInjector::instance();
  injector.reset();
  if (alloc_every != 0) injector.arm_every(alloc_every);

  std::mt19937 rng(static_cast<std::mt19937::result_type>(seed));
  std::unordered_set<net::FlowKey> reference;

  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  std::uniform_int_distribution<int> dice(0, 99);

  // Returns "" when every structural invariant holds, so ASSERT_EQ gives
  // readable failure output (and actually aborts the test — ASSERT inside
  // a lambda would only return from the lambda).
  const auto invariant_errors = [&] {
    return validate_demuxer(*demuxer).to_string();
  };

  std::uint64_t lookups_since_validate = 0;
  for (std::uint64_t op = 0; op < ops; ++op) {
    if (resize_every != 0 && op % resize_every == 0) {
      // Forced drain step: a mutation of the two-table state even when no
      // regular op would touch it, validated on the spot so a cursor that
      // skipped an occupied slot fails at the step that skipped it.
      demuxer->migration_step();
      ASSERT_EQ(invariant_errors(), "")
          << "after forced migration step at op " << op;
    }
    const net::FlowKey& k = pool[pick(rng)];
    const bool expected = reference.contains(k);
    const int roll = dice(rng);
    if (roll < 45) {
      // lookup: found-ness, identity, and sane accounting must agree.
      const SegmentKind kind =
          (roll % 2 == 0) ? SegmentKind::kData : SegmentKind::kAck;
      const LookupResult r = demuxer->lookup(k, kind);
      ASSERT_EQ(r.pcb != nullptr, expected) << "op " << op;
      if (r.pcb != nullptr) {
        ASSERT_EQ(r.pcb->key, k);
        ASSERT_GE(r.examined, 1u);
        if (dice(rng) < 10) demuxer->note_sent(r.pcb);
      }
      // Lookups mutate caches and MTF order; validate on a sample so the
      // fuzz budget goes into operations, not only re-walks.
      if (++lookups_since_validate >= 64) {
        lookups_since_validate = 0;
        ASSERT_EQ(invariant_errors(), "") << "after lookup op " << op;
      }
    } else if (roll < 50) {
      // Exact-key wildcard lookup: a fully-specified stored key must be
      // found exactly; absence must not conjure a match (the pool holds no
      // wildcard PCBs).
      const LookupResult r = demuxer->lookup_wildcard(k);
      ASSERT_EQ(r.pcb != nullptr, expected) << "op " << op;
      if (r.pcb != nullptr) {
        ASSERT_EQ(r.pcb->key, k);
      }
    } else if (roll < 75) {
      // An insert can fail three ways: duplicate (expected), injected
      // allocation failure, or (not configured here) a max_pcbs shed. The
      // injector delta disambiguates; either way a refusal must leave the
      // reference state untouched.
      const std::uint64_t injected_before = injector.injected();
      Pcb* const pcb = demuxer->insert(k);
      if (injector.injected() != injected_before) {
        ASSERT_EQ(pcb, nullptr) << "op " << op;
        ASSERT_FALSE(expected) << "op " << op;  // duplicates never allocate
      } else {
        ASSERT_EQ(pcb == nullptr, expected) << "op " << op;
      }
      if (pcb != nullptr) {
        ASSERT_EQ(pcb->key, k);
        reference.insert(k);
      }
      ASSERT_EQ(invariant_errors(), "") << "after insert op " << op;
    } else if (roll < 95) {
      ASSERT_EQ(demuxer->erase(k), expected) << "op " << op;
      reference.erase(k);
      ASSERT_EQ(invariant_errors(), "") << "after erase op " << op;
    } else {
      // Batch lookup through whatever pipeline the algorithm provides
      // (default loop, flat/sequent prefetch pipelines, RCU fast path):
      // results must agree with the reference entry-by-entry.
      std::vector<net::FlowKey> keys(8);
      std::vector<LookupResult> results(keys.size());
      for (auto& bk : keys) bk = pool[pick(rng)];
      demuxer->lookup_batch(keys, results);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(results[i].pcb != nullptr, reference.contains(keys[i]))
            << "op " << op << " batch index " << i;
        if (results[i].pcb != nullptr) {
          ASSERT_EQ(results[i].pcb->key, keys[i]);
        }
      }
      if (++lookups_since_validate >= 64) {
        lookups_since_validate = 0;
        ASSERT_EQ(invariant_errors(), "") << "after batch op " << op;
      }
    }
    ASSERT_EQ(demuxer->size(), reference.size()) << "op " << op;
  }
  injector.reset();

  // Full sweep at the end: every reference key present, every absent pool
  // key absent, structure still well-formed.
  ASSERT_EQ(invariant_errors(), "") << "after final op";
  for (const net::FlowKey& k : pool) {
    const LookupResult r = demuxer->lookup(k);
    ASSERT_EQ(r.pcb != nullptr, reference.contains(k));
  }
  std::size_t counted = 0;
  demuxer->for_each_pcb([&](const Pcb& pcb) {
    ++counted;
    EXPECT_TRUE(reference.contains(pcb.key));
  });
  EXPECT_EQ(counted, reference.size());

  // Telemetry differential: the registry is a second accounting path fed
  // by the same note_lookup funnel as DemuxStats, so after any op sequence
  // the two must agree exactly — the histogram-summed examined count
  // bit-equal to pcbs_examined, every lookup in exactly one bucket, and
  // the insert/erase ledger equal to the live PCB count.
  const DemuxStats& stats = demuxer->stats();
  const report::Telemetry& telemetry = demuxer->telemetry();
  EXPECT_EQ(telemetry.counters().lookups, stats.lookups);
  EXPECT_EQ(telemetry.counters().found, stats.found);
  EXPECT_EQ(telemetry.counters().cache_hits, stats.cache_hits);
  EXPECT_EQ(telemetry.examined().count(), stats.lookups);
  EXPECT_EQ(telemetry.examined().sum(), stats.pcbs_examined);
  EXPECT_EQ(telemetry.counters().inserts - telemetry.counters().erases,
            demuxer->size());
  std::size_t occupancy_total = 0;
  for (const std::size_t o : demuxer->occupancy()) occupancy_total += o;
  EXPECT_EQ(occupancy_total, demuxer->size());
}

// The injector is process-wide; leave it disarmed even when an ASSERT
// aborted run_fuzz_ops mid-flight.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().reset(); }
};

class FuzzOpsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FuzzOpsTest, RandomOpsMatchReferenceAndPreserveInvariants) {
  InjectorGuard guard;
  const std::string spec = GetParam();
  std::mt19937 pool_rng(0xb00);
  run_fuzz_ops(spec, make_key_pool(192, pool_rng));
}

class FuzzAdversarialTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FuzzAdversarialTest, CollidedOpsMatchReferenceAndPreserveInvariants) {
  InjectorGuard guard;
  const std::string spec = GetParam();
  std::mt19937 pool_rng(0xbad);
  run_fuzz_ops(spec, make_adversarial_pool(pool_rng));
}

std::string sanitize_spec_name(const char* spec) {
  std::string name = spec;
  for (char& c : name) {
    if (c == ':' || c == '@' || c == '=') c = '_';
  }
  return name;
}

// Every algorithm the registry can produce, plus the option corners that
// change structure shape (nocache, tiny chain counts that force dynamic
// rehashes, a second hasher).
INSTANTIATE_TEST_SUITE_P(
    AllDemuxers, FuzzOpsTest,
    ::testing::Values("bsd", "mtf", "srcache", "connection_id:256", "sequent",
                      "sequent:7:crc32:nocache", "hashed_mtf:19",
                      "dynamic:5:crc32", "rcu",
                      "rcu:7:crc32:nocache", "flat16", "flat16:64:crc32",
                      // Bounded-pause incremental resize: the fuzz op mix
                      // drives growth through the two-table drain (see
                      // TCPDEMUX_FUZZ_RESIZE_EVERY for forcing extra
                      // steps); every growing backend runs it.
                      "dynamic:5:crc32:incremental", "flat16:64:incremental",
                      // Sharded fleet: per-shard structures, the cross-shard
                      // no-duplicate-key invariant, and the merged telemetry
                      // ledger must all stay bit-exact under the op mix.
                      "sharded:4:flat16", "sharded:2:sequent:19:crc32",
                      "sharded:3:dynamic:5:crc32:incremental"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return sanitize_spec_name(info.param);
    });

// The unkeyed specs fuzz fully degenerate (one chain / one probe run);
// the keyed and rehash specs fuzz the defense machinery: seed rotation
// mid-sequence must stay differential-exact and validator-clean.
INSTANTIATE_TEST_SUITE_P(
    AdversarialKeys, FuzzAdversarialTest,
    ::testing::Values("bsd", "sequent", "sequent:19:xor_fold",
                      "sequent:19:xor_fold:rehash",
                      "sequent:19:siphash@5eed", "hashed_mtf:19",
                      "dynamic:5:xor_fold", "rcu:19:xor_fold",
                      "flat16:64:xor_fold", "flat16:64:xor_fold:rehash",
                      "flat16:64:siphash@5eed",
                      // Incremental resize under the collided pool: the
                      // drain must cope with one saturated probe run /
                      // one giant chain spanning both tables.
                      "dynamic:5:xor_fold:incremental",
                      "flat16:64:xor_fold:incremental",
                      "flat16:64:xor_fold:rehash:incremental",
                      // Sharded under the collided pool: Toeplitz steering
                      // keeps spreading keys whose inner hash collapses.
                      "sharded:4:flat16:64:xor_fold",
                      "sharded:2:sequent:19:siphash@5eed"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return sanitize_spec_name(info.param);
    });

}  // namespace
}  // namespace tcpdemux::core
