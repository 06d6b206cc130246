// The scenario matrix end to end: every WorkloadSpec kind crossed with
// every demultiplexer family must replay without a single failed lookup.
// This is the invariant the wallclock_scenarios bench (and the numbers in
// EXPERIMENTS.md) stand on — a miss would mean the generator emitted an
// arrival for a connection the demuxer did not hold, i.e. broken
// open/close ordering under port reuse.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/demux_registry.h"
#include "net/pcap.h"
#include "sim/replay.h"
#include "sim/trace_packets.h"
#include "sim/workloads/pcap_workload.h"
#include "sim/workloads/workload_spec.h"

namespace tcpdemux::sim::workloads {
namespace {

const std::vector<std::string>& scenario_specs() {
  static const std::vector<std::string> specs = {
      "tpca:users=200:duration=10",
      "zipf:flows=300:arrivals=10k:duration=10",
      "trains:conns=8:len=16:duration=2",
      "churn:users=40:session=4:think=0.5:ports=8:duration=20",
      "natpop:clients=150:nats=4:duration=10:think=0.5",
      "mix:flood=10%:base=zipf:flows=300:arrivals=10k:duration=10",
  };
  return specs;
}

const std::vector<std::string>& demuxer_specs() {
  static const std::vector<std::string> specs = {
      "bsd",     "mtf",           "srcache",        "sequent:19:crc32",
      "dynamic", "rcu:61:crc32",  "flat16:1024:crc32"};
  return specs;
}

TEST(ScenarioMatrix, EveryCellReplaysWithoutMisses) {
  for (const std::string& wspec : scenario_specs()) {
    const Workload workload = make_workload(wspec);
    ASSERT_GT(workload.trace.arrivals(), 0u) << wspec;
    for (const std::string& dspec : demuxer_specs()) {
      const auto demuxer = core::make_demuxer(*core::parse_demux_spec(dspec));
      const auto result = sim::replay_trace(workload, *demuxer);
      EXPECT_EQ(result.misses, 0u) << wspec << " x " << dspec;
      EXPECT_GT(result.lookups, 0u) << wspec << " x " << dspec;
    }
  }
}

TEST(ScenarioMatrix, PcapRowJoinsTheMatrix) {
  // The pcap-driven row enters through the same Workload interface: a
  // synthesized capture re-imported and replayed through every demuxer.
  const Workload base = make_workload("trains:conns=6:len=8:duration=2");
  std::stringstream capture;
  net::PcapWriter writer(capture);
  for (const auto& p : synthesize_packets(base.trace, base.keys)) {
    writer.write(p.time, p.wire);
  }
  const Workload imported = make_pcap_workload(capture, {});
  ASSERT_EQ(imported.trace.connections, base.trace.connections);
  for (const std::string& dspec : demuxer_specs()) {
    const auto demuxer = core::make_demuxer(*core::parse_demux_spec(dspec));
    const auto result = sim::replay_trace(imported, *demuxer);
    EXPECT_EQ(result.misses, 0u) << "pcap x " << dspec;
    EXPECT_GT(result.lookups, 0u);
  }
}

TEST(ScenarioMatrix, CellsAreDeterministicAcrossRuns) {
  const std::string wspec = "churn:users=30:duration=20:ports=8:think=0.5";
  const std::string dspec = "sequent:19:crc32";
  std::vector<std::uint64_t> fingerprints;
  for (int run = 0; run < 2; ++run) {
    const Workload w = make_workload(wspec);
    const auto demuxer = core::make_demuxer(*core::parse_demux_spec(dspec));
    const auto result = sim::replay_trace(w, *demuxer);
    fingerprints.push_back(result.lookups ^ (result.cache_hits << 1) ^
                           (static_cast<std::uint64_t>(result.opens) << 32));
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

}  // namespace
}  // namespace tcpdemux::sim::workloads
