// Huge-page-backed table storage (core/huge_pages.h) and the pre-parse
// Demuxer::prefetch hook.
//
// The policy is fixed: a flat table's first slab chunk and its slot arrays
// under 2 MiB keep base pages, so a small table stays small; later chunks
// and slot arrays of 2 MiB or more are 2 MiB-aligned and advised
// MADV_HUGEPAGE. The advice is read back from the kernel's own view of
// the process (VmFlags `hg` in /proc/self/smaps), not from the helper.
#include "core/huge_pages.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/demux_registry.h"
#include "core/flat_demuxer.h"
#include "core/validate.h"
#include "net/flow_key.h"
#include "report/telemetry_json.h"

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

net::FlowKey key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, static_cast<std::uint8_t>(i >> 16),
                                    static_cast<std::uint8_t>(i >> 8),
                                    static_cast<std::uint8_t>(i & 0xff)),
                      static_cast<std::uint16_t>(20000 + (i % 7))};
}

/// The VmFlags line of the mapping that holds `addr`, from
/// /proc/self/smaps; nullopt if no mapping holds it.
std::optional<std::string> vm_flags_of(const void* addr) {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool inside = false;
  while (std::getline(smaps, line)) {
    std::uintptr_t start = 0;
    std::uintptr_t end = 0;
    char dash = 0;
    std::istringstream header(line);
    if (header >> std::hex >> start >> dash >> end && dash == '-') {
      inside = start <= a && a < end;
      continue;
    }
    if (inside && line.rfind("VmFlags:", 0) == 0) return line;
  }
  return std::nullopt;
}

bool advised_huge(const void* addr) {
  const auto flags = vm_flags_of(addr);
  return flags.has_value() && flags->find(" hg") != std::string::npos;
}

bool huge_aligned(const void* addr) {
  return reinterpret_cast<std::uintptr_t>(addr) % kHugePageBytes == 0;
}

#define SKIP_UNLESS_KERNEL_TAKES_HUGE_PAGE_ADVICE()                     \
  do {                                                                  \
    if (!huge_page_advice_supported()) {                                \
      GTEST_SKIP() << "*** SKIPPED: this kernel rejects MADV_HUGEPAGE " \
                      "(no transparent huge page support) ***";         \
    }                                                                   \
  } while (0)

TEST(SlotArray, IsZeroFilledAndMoveOnly) {
  // A heap-backed and a huge-page-backed size.
  for (const std::size_t n : {std::size_t{1000}, kHugePageBytes / 4}) {
    SlotArray<std::uint32_t> a(n);
    ASSERT_EQ(a.size(), n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(a[i], 0u) << i;
    a[n - 1] = 7;
    SlotArray<std::uint32_t> b = std::move(a);
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(a.data(), nullptr);
    EXPECT_EQ(b[n - 1], 7u);
    SlotArray<std::uint32_t> c;
    c = std::move(b);
    EXPECT_EQ(c.size(), n);
    EXPECT_EQ(c[n - 1], 7u);
  }
}

TEST(HugePages, FirstSlabChunkKeepsBasePages) {
  FlatDemuxer d;
  ASSERT_NE(d.insert(key(0)), nullptr);
  ASSERT_EQ(d.slab().chunks(), 1u);
  const auto flags = vm_flags_of(&d.slab().at(0));
  ASSERT_TRUE(flags.has_value());
  EXPECT_EQ(flags->find(" hg"), std::string::npos) << *flags;
}

TEST(HugePages, LaterSlabChunksAreAlignedAndAdvised) {
  SKIP_UNLESS_KERNEL_TAKES_HUGE_PAGE_ADVICE();
  FlatDemuxer d;
  const std::uint32_t n = 2 * PcbSlab::kPcbsPerChunk + 1;
  for (std::uint32_t i = 0; i < n; ++i) ASSERT_NE(d.insert(key(i)), nullptr);
  ASSERT_EQ(d.slab().chunks(), 3u);
  EXPECT_FALSE(advised_huge(&d.slab().at(0)));
  for (std::uint32_t c = 1; c < 3; ++c) {
    const Pcb* const chunk = &d.slab().at(c * PcbSlab::kPcbsPerChunk);
    EXPECT_TRUE(huge_aligned(chunk)) << "chunk " << c;
    EXPECT_TRUE(advised_huge(chunk)) << "chunk " << c << ": "
                                     << vm_flags_of(chunk).value_or("?");
  }
  EXPECT_TRUE(StructuralValidator::validate(d).ok());
}

TEST(HugePages, SlotArraysFromTwoMebibytesAreAlignedAndAdvised) {
  SKIP_UNLESS_KERNEL_TAKES_HUGE_PAGE_ADVICE();
  // 2^21 slots: a 2 MiB tag array and 8 MiB hash and index arrays. They
  // are mapped, not touched, so the test costs no resident memory.
  FlatDemuxer big(FlatDemuxer::Options{std::size_t{1} << 21});
  const auto& tags = ValidatorTestAccess::flat_tags(big);
  const auto& index = ValidatorTestAccess::flat_index(big);
  ASSERT_EQ(tags.size() * sizeof(tags[0]), kHugePageBytes);
  for (const void* array : {static_cast<const void*>(tags.data()),
                            static_cast<const void*>(index.data())}) {
    EXPECT_TRUE(huge_aligned(array));
    EXPECT_TRUE(advised_huge(array)) << vm_flags_of(array).value_or("?");
  }
  // One size down, every slot array is under 2 MiB and keeps base pages.
  FlatDemuxer small(FlatDemuxer::Options{std::size_t{1} << 18});
  EXPECT_FALSE(advised_huge(ValidatorTestAccess::flat_tags(small).data()));
  EXPECT_FALSE(advised_huge(ValidatorTestAccess::flat_index(small).data()));
}

TEST(HugePages, GrowthReplacesSlotArraysUnderTheSamePolicy) {
  SKIP_UNLESS_KERNEL_TAKES_HUGE_PAGE_ADVICE();
  // 2^18 -> 2^19 slots: the index array crosses 2 MiB on the doubling.
  FlatDemuxer d(FlatDemuxer::Options{std::size_t{1} << 18});
  const std::uint32_t n = (std::uint32_t{1} << 18) * 7 / 8 + 1;
  for (std::uint32_t i = 0; i < n; ++i) ASSERT_NE(d.insert(key(i)), nullptr);
  ASSERT_EQ(d.capacity(), std::size_t{1} << 19);
  EXPECT_FALSE(advised_huge(ValidatorTestAccess::flat_tags(d).data()));
  EXPECT_TRUE(advised_huge(ValidatorTestAccess::flat_index(d).data()));
  EXPECT_TRUE(StructuralValidator::validate(d).ok());
}

// A huge mapping ends on a 2 MiB boundary, not at the array's end, so
// only the poisoned tail lets AddressSanitizer see a read one slot too
// far. A small array is a heap block with ASan's own redzone.
TEST(HugePagesDeathTest, ReadPastSlotArrayEndIsReportedUnderAsan) {
#if !TCPDEMUX_TEST_ASAN
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  const struct {
    std::size_t capacity;
    const char* report;
  } cases[] = {{std::size_t{1} << 21, "use-after-poison"},
               {1024, "heap-buffer-overflow"}};
  for (const auto& c : cases) {
    FlatDemuxer d(FlatDemuxer::Options{c.capacity});
    const auto& tags = ValidatorTestAccess::flat_tags(d);
    ASSERT_EQ(tags.size(), c.capacity);
    EXPECT_DEATH(
        {
          const volatile std::uint8_t* past = tags.data() + tags.size();
          (void)*past;
        },
        c.report)
        << "capacity " << c.capacity;
  }
#endif
}

/// Everything prefetch() must leave alone, as one comparable string.
std::string observable_state(const Demuxer& d) {
  report::TelemetryReport r;
  r.telemetry = d.telemetry();
  r.occupancy = d.occupancy();
  const DemuxStats& s = d.stats();
  const ResilienceStats res = d.resilience();
  std::ostringstream os;
  os << report::telemetry_to_json(r) << "|lookups=" << s.lookups
     << " found=" << s.found << " cache_hits=" << s.cache_hits
     << " examined=" << s.pcbs_examined << " size=" << d.size()
     << " memory=" << d.memory_bytes() << " shed=" << res.inserts_shed
     << " refused=" << res.inserts_refused << " name=" << d.name();
  return os.str();
}

class PrefetchTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PrefetchTest, ChangesNothingObservable) {
  const auto demuxer = make_demuxer(*parse_demux_spec(GetParam()));
  demuxer->enable_telemetry_histograms(true);
  // Enough inserts to start (and, for incremental specs, leave in flight)
  // a growth from the 16-slot tables.
  for (std::uint32_t i = 0; i < 200; ++i) demuxer->insert(key(i));
  for (std::uint32_t i = 0; i < 50; ++i) demuxer->lookup(key(i * 3));
  const std::string before = observable_state(*demuxer);
  for (std::uint32_t i = 0; i < 400; ++i) demuxer->prefetch(key(i));
  EXPECT_EQ(observable_state(*demuxer), before);
  // And the next lookup behaves as if prefetch() had never run.
  const LookupResult hit = demuxer->lookup(key(7));
  ASSERT_NE(hit.pcb, nullptr);
  EXPECT_EQ(hit.pcb->key, key(7));
  EXPECT_EQ(demuxer->lookup(key(1000)).pcb, nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    EveryFamily, PrefetchTest,
    ::testing::Values("bsd", "mtf", "srcache", "sequent:19:crc32",
                      "hashed_mtf", "connection_id", "dynamic:5:crc32",
                      "dynamic:5:crc32:incremental", "rcu:19:crc32",
                      "flat16:16", "flat16:16:crc32:incremental",
                      "flat16:16:crc32c:incremental", "sharded:4:flat16:16",
                      "sharded:2:flat16:16:incremental",
                      "sharded:3:sequent:19:crc32"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':') c = '_';
      }
      return name;
    });

TEST(FlatPrefetch, DoesNotStepAMigration) {
  FlatDemuxer d(FlatDemuxer::Options{.initial_capacity = 16,
                                     .hasher = net::HasherKind::kCrc32,
                                     .incremental = true});
  std::uint32_t i = 0;
  while (!d.migrating()) ASSERT_NE(d.insert(key(i++)), nullptr);
  const std::size_t debt = d.migration_debt();
  ASSERT_GT(debt, 0u);
  for (std::uint32_t k = 0; k < 100; ++k) d.prefetch(key(k));
  EXPECT_EQ(d.migration_debt(), debt);
  EXPECT_TRUE(d.migrating());
}

}  // namespace
}  // namespace tcpdemux::core
