// memory_bytes(): the §3.4 cost side of the trade — "the memory required
// for the hash-chain headers".
#include <gtest/gtest.h>

#include "core/demux_registry.h"

namespace tcpdemux::core {
namespace {

net::FlowKey key(std::uint32_t i) {
  return net::FlowKey{net::Ipv4Addr(10, 0, 0, 1), 1521,
                      net::Ipv4Addr(10, 1, 0, 2),
                      static_cast<std::uint16_t>(1024 + i)};
}

TEST(MemoryBytes, GrowsWithPcbCount) {
  for (const char* spec : {"bsd", "mtf", "srcache", "sequent", "hashed_mtf",
                           "dynamic", "connection_id", "rcu", "flat16",
                           "sharded:4:flat16"}) {
    const auto d = make_demuxer(*parse_demux_spec(spec));
    const std::size_t empty = d->memory_bytes();
    for (std::uint32_t i = 0; i < 100; ++i) d->insert(key(i));
    const std::size_t loaded = d->memory_bytes();
    EXPECT_GE(loaded, empty + 100 * sizeof(Pcb)) << spec;
  }
}

TEST(MemoryBytes, MoreChainsCostMoreHeaders) {
  const auto small = make_demuxer(*parse_demux_spec("sequent:19"));
  const auto large = make_demuxer(*parse_demux_spec("sequent:1021"));
  EXPECT_GT(large->memory_bytes(), small->memory_bytes());
  // ...but the increment is header-sized, not PCB-sized: going from 19 to
  // 1021 chains costs far less than 1002 PCBs would.
  EXPECT_LT(large->memory_bytes() - small->memory_bytes(),
            1002 * sizeof(Pcb));
}

TEST(MemoryBytes, ConnectionIdPaysForItsSlotArray) {
  DemuxConfig config;
  config.algorithm = Algorithm::kConnectionId;
  config.id_capacity = 65536;
  const auto d = make_demuxer(config);
  // 64 Ki pointer slots + 64 Ki free ids: the ID space is pre-paid.
  EXPECT_GT(d->memory_bytes(), 65536u * sizeof(void*));
}

TEST(MemoryBytes, PcbIsRealisticallyLarge) {
  // The paper's premise: PCBs are big enough that thousands of them blow
  // out on-chip caches. Keep ours honest (a classic inpcb+tcpcb pair runs
  // a few hundred bytes).
  EXPECT_GE(sizeof(Pcb), 100u);
}

}  // namespace
}  // namespace tcpdemux::core
