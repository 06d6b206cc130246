// Degradation-ladder coverage for incremental resize (DESIGN.md
// "Incremental resize & degradation ladder"): rung 1 (allocation failure
// at the growth trigger defers the doubling and keeps serving), rung 2
// (the hard 15/16 watermark sheds instead of letting probe runs rot),
// recovery (backoff expiry retries the doubling and drains to a single
// table), and the acceptance claim that an allocation failure landing
// mid-migration leaves every backend validator-clean and lookup-correct.
//
// The injector choreography relies on a deliberate structural property of
// every growing backend: an insert polls the injector exactly once for
// its own PCB, and start_migration() polls exactly once more before
// touching memory. arm_after(2) around a single insert therefore fails
// precisely the growth attempt — never the insert itself — and a
// non-growing insert leaves the single-shot unconsumed (reset by the
// disarm that follows).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/demux_registry.h"
#include "core/fault_inject.h"
#include "core/validate.h"
#include "net/flow_key.h"

namespace tcpdemux::core {
namespace {

// The injector is process-wide: every test must leave it disarmed even on
// assertion failure, or it would poison later tests in the same binary.
struct InjectorGuard {
  InjectorGuard() { FaultInjector::instance().reset(); }
  ~InjectorGuard() { FaultInjector::instance().reset(); }
};

net::FlowKey nth_key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 2), 1521,
                      net::Ipv4Addr(0x0a030000U + i),
                      static_cast<std::uint16_t>(3000 + (i & 0x7fff))};
}

// Ceiling on blind insert loops: generously above every table's growth
// trigger (largest is flat16:64 at 56 entries) yet small enough that a
// broken trigger fails the test instead of hanging it.
constexpr std::uint32_t kMaxAttempts = 4096;

class ResizeLadderTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    const auto config = parse_demux_spec(GetParam());
    ASSERT_TRUE(config.has_value()) << GetParam();
    demuxer_ = make_demuxer(*config);
    ASSERT_NE(demuxer_, nullptr) << GetParam();
  }

  // Inserts nth_key(next_) and bumps next_ on success.
  [[nodiscard]] bool insert_next() {
    if (demuxer_->insert(nth_key(next_)) == nullptr) return false;
    ++next_;
    return true;
  }

  void expect_all_inserted_found(const char* when) {
    for (std::uint32_t i = 0; i < next_; ++i) {
      ASSERT_NE(demuxer_->lookup(nth_key(i)).pcb, nullptr)
          << GetParam() << " " << when << ": key " << i << " of " << next_;
    }
    EXPECT_EQ(demuxer_->size(), next_) << GetParam() << " " << when;
    EXPECT_EQ(validate_demuxer(*demuxer_).to_string(), "")
        << GetParam() << " " << when;
  }

  std::unique_ptr<Demuxer> demuxer_;
  std::uint32_t next_ = 0;  // keys [0, next_) are resident
};

// The full ladder, bottom to top: defer -> serve -> shed -> retry ->
// drain. Each rung is observed through telemetry counters and the
// structural validator only — no backend downcasts, so the contract is
// pinned at the Demuxer interface every caller actually uses.
TEST_P(ResizeLadderTest, DeferServesShedThenRecovers) {
  InjectorGuard guard;
  auto& injector = FaultInjector::instance();

  // Rung 1: walk inserts toward the growth trigger, failing exactly the
  // allocation start_migration() would make. The triggering insert must
  // still be admitted — deferral refuses the *doubling*, not the packet.
  std::uint32_t deferred_at = 0;
  for (std::uint32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    injector.arm_after(2);
    const bool admitted = insert_next();
    injector.disarm();
    if (demuxer_->telemetry().counters().resizes_deferred > 0) {
      EXPECT_TRUE(admitted) << GetParam() << ": deferring insert refused";
      deferred_at = next_;
      break;
    }
    ASSERT_TRUE(admitted) << GetParam() << ": refused below trigger at "
                          << next_;
  }
  ASSERT_GT(deferred_at, 0u) << GetParam() << ": growth never triggered";
  EXPECT_EQ(demuxer_->telemetry().counters().resizes_deferred, 1u);
  EXPECT_EQ(demuxer_->telemetry().counters().resizes_started, 0u);
  expect_all_inserted_found("after rung-1 defer");

  // Between the 7/8 trigger and the 15/16 watermark the table keeps
  // admitting; at the watermark it sheds. Keep every backoff retry
  // failing too (same arm_after(2) trick) so the block genuinely holds
  // until we choose to lift it, independent of the backoff constants.
  const std::uint64_t shed_before = demuxer_->resilience().inserts_shed;
  std::uint32_t admitted_blocked = 0;
  std::uint32_t shed_seen = 0;
  for (std::uint32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    injector.arm_after(2);
    const bool admitted = insert_next();
    injector.disarm();
    if (admitted) {
      ++admitted_blocked;
    } else if (demuxer_->resilience().inserts_shed > shed_before) {
      ++shed_seen;
      if (shed_seen >= 3) break;  // rung 2 is holding, not a one-off
    }
  }
  EXPECT_EQ(shed_seen, 3u) << GetParam() << ": watermark never shed";
  EXPECT_GT(admitted_blocked, 0u)
      << GetParam() << ": blocked table stopped admitting below watermark";
  EXPECT_EQ(demuxer_->telemetry().counters().resizes_started, 0u);
  expect_all_inserted_found("at rung-2 watermark");

  // Recovery: with allocations healthy again, refused inserts burn down
  // the backoff; the retry lands, the doubling starts, and admissions
  // resume. The shed keys were dropped — TCP retransmit is the contract
  // — so the recovered table simply admits the next arrivals.
  bool resumed = false;
  for (std::uint32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (insert_next() &&
        demuxer_->telemetry().counters().resizes_started > 0) {
      resumed = true;
      break;
    }
  }
  ASSERT_TRUE(resumed) << GetParam() << ": backoff retry never landed";
  expect_all_inserted_found("after recovery");

  // Drain to a single table and confirm nothing was lost along the way.
  std::uint32_t steps = 0;
  while (demuxer_->migration_step()) {
    ASSERT_LT(++steps, kMaxAttempts) << GetParam() << ": drain never ended";
  }
  EXPECT_GE(demuxer_->telemetry().counters().resizes_completed, 1u);
  expect_all_inserted_found("after drain");
}

// ISSUE acceptance: an allocation failure arriving *mid-migration* must
// not corrupt either table or stall the drain — migration moves existing
// PCBs and allocates nothing, so it completes even while every new
// allocation in the process is failing.
TEST_P(ResizeLadderTest, AllocFailureMidMigrationDrainsClean) {
  InjectorGuard guard;
  auto& injector = FaultInjector::instance();

  // Healthy growth: insert until a doubling starts. The starting insert
  // migrates only a bounded batch, so the old table still holds debt.
  for (std::uint32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    ASSERT_TRUE(insert_next()) << GetParam() << ": refused while healthy";
    if (demuxer_->telemetry().counters().resizes_started > 0) break;
  }
  ASSERT_GT(demuxer_->telemetry().counters().resizes_started, 0u)
      << GetParam() << ": growth never started";
  expect_all_inserted_found("at migration start");

  // Total allocation failure, mid-drain. New inserts are refused before
  // touching either table; lookups and explicit steps keep migrating.
  injector.arm_every(1);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(demuxer_->insert(nth_key(next_ + i)), nullptr) << GetParam();
    EXPECT_EQ(validate_demuxer(*demuxer_).to_string(), "")
        << GetParam() << ": refused insert " << i << " mid-migration";
  }
  std::uint32_t steps = 0;
  while (demuxer_->migration_step()) {
    ASSERT_LT(++steps, kMaxAttempts) << GetParam() << ": drain never ended";
  }
  injector.disarm();
  EXPECT_GE(demuxer_->telemetry().counters().resizes_completed, 1u)
      << GetParam() << ": drain did not complete under allocation failure";
  expect_all_inserted_found("after drain under failure");

  // The refused arrivals were dropped, not half-inserted: they are absent
  // now and insert cleanly once allocations recover.
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(demuxer_->lookup(nth_key(next_ + i)).pcb, nullptr)
        << GetParam();
  }
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(insert_next()) << GetParam() << ": refused after recovery";
  }
  expect_all_inserted_found("after full recovery");
}

INSTANTIATE_TEST_SUITE_P(
    GrowingBackends, ResizeLadderTest,
    ::testing::Values("dynamic:5:crc32:incremental", "flat16:64:incremental"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':' || c == '@' || c == '=') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace tcpdemux::core
