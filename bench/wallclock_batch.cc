// Scalar vs batched lookup: does the lookup_batch() pipeline (hash the
// burst, prefetch every target line, then probe) actually buy wall-clock
// time over N back-to-back scalar lookups?
//
// NIC receive bursts have little temporal locality, so the key stream is
// uniform-random over the population — the regime where every probe is a
// cache miss and software pipelining has the most to hide. Covered
// structures: the flat table (SoA + fingerprint tags, the tentpole), the
// chained sequent table, the RCU demuxer (one epoch guard per burst), and
// a chained table with no override (hashed_mtf) as the default-loop
// baseline. Both drive modes read each found PCB's second cache line
// (bench::touch_pcb), as the receive path does next.
//
//   wallclock_batch [--smoke] [--json <path>] [--miss-rate <f>]
//                   [--sizes <a,b,...>]
//
// --sizes accepts k/m suffixes, as in wallclock_lookup ("--sizes 2m").
//
// --miss-rate blends negative lookups into the burst stream: the batch
// path's prefetch pipeline hides miss probes exactly as well as hit
// probes, so the scalar/batch gap should widen with the miss fraction.
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/demux_registry.h"
#include "sim/address_space.h"

namespace {

using namespace tcpdemux;

constexpr std::size_t kBurst = 32;

std::uint32_t scaled_chains(std::uint32_t users) {
  if (users <= 2000) return 251;
  if (users <= 20000) return 2521;
  if (users <= 200000) return 25013;
  return 250007;
}

std::vector<std::string> specs_for(std::uint32_t users) {
  const std::string chains = std::to_string(scaled_chains(users));
  const std::string doubled = std::to_string(2 * users);
  return {"flat16:" + doubled + ":crc32", "flat16:" + doubled + ":crc32c",
          "flat16:" + doubled,
          "sequent:" + chains + ":crc32", "rcu:" + chains + ":crc32",
          "hashed_mtf:" + chains + ":crc32"};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_bench_args(argc, argv);
  report::BenchJsonWriter writer;

  std::vector<std::uint32_t> sizes = {2000, 20000, 200000};
  if (opts.smoke) sizes = {2000};
  if (!opts.sizes.empty()) sizes = opts.sizes;

  std::printf("%-26s %10s %12s %12s %9s\n", "demuxer", "users", "scalar_ns",
              "batch_ns", "speedup");
  for (const std::uint32_t users : sizes) {
    sim::AddressSpaceParams ap;
    ap.clients = users;
    const auto keys = sim::make_client_keys(ap);

    // One shared uniform-random stream per size so every structure (and
    // both drive modes) sees the identical arrival order. Power-of-two
    // length for cheap wraparound in multiples of kBurst. Misses are baked
    // into the stream up front so the timed loops stay branch-free.
    constexpr std::size_t kStreamLen = 1 << 16;
    std::vector<net::FlowKey> stream(kStreamLen);
    const auto absent = opts.miss_rate > 0.0
                            ? bench::make_absent_keys(keys, 1024)
                            : std::vector<net::FlowKey>{};
    bench::MissSequencer misses(opts.miss_rate);
    std::size_t next_absent = 0;
    std::mt19937 rng(1234);
    std::uniform_int_distribution<std::size_t> pick(0, keys.size() - 1);
    for (auto& k : stream) {
      k = misses.next_is_miss() ? absent[next_absent++ & (absent.size() - 1)]
                                : keys[pick(rng)];
    }

    for (const std::string& spec : specs_for(users)) {
      const auto demuxer = core::make_demuxer(*core::parse_demux_spec(spec));
      for (const auto& k : keys) demuxer->insert(k);

      std::size_t i = 0;
      const bench::Timing scalar = bench::time_loop(
          kBurst,
          [&] {
            for (std::size_t j = 0; j < kBurst; ++j) {
              bench::do_not_optimize(
                  bench::touch_pcb(demuxer->lookup(stream[i + j]).pcb));
            }
            i = (i + kBurst) & (kStreamLen - 1);
          },
          opts.timing());

      std::vector<core::LookupResult> results(kBurst);
      i = 0;
      const bench::Timing batch = bench::time_loop(
          kBurst,
          [&] {
            demuxer->lookup_batch({stream.data() + i, kBurst}, results);
            for (const core::LookupResult& r : results) {
              bench::do_not_optimize(bench::touch_pcb(r.pcb));
            }
            i = (i + kBurst) & (kStreamLen - 1);
          },
          opts.timing());

      const double speedup = scalar.ns_per_op / batch.ns_per_op;
      std::printf("%-26s %10u %12.1f %12.1f %8.2fx\n", spec.c_str(), users,
                  scalar.ns_per_op, batch.ns_per_op, speedup);

      report::BenchRecord rec;
      rec.bench = "wallclock_batch";
      rec.name = spec;
      rec.add_metric("users", users);
      rec.add_metric("burst", kBurst);
      rec.add_metric("miss_rate", opts.miss_rate);
      rec.add_metric("scalar_ns_per_lookup", scalar.ns_per_op);
      rec.add_metric("batch_ns_per_lookup", batch.ns_per_op);
      rec.add_metric("speedup", speedup);
      writer.add(std::move(rec));
    }
  }

  bench::finish_json(writer, opts);
  return 0;
}
