// Multiprocessor scaling: global lock vs per-chain lock striping vs
// RCU-style lock-free reads, across 1-8 threads with a read/write-mix
// knob, on a hand-rolled thread harness (spin-barrier start, aggregate
// wall time, median of reps).
//
// The paper grew out of Sequent's parallel TCP [Dov90]: on an SMP, hash
// chains partition the lock as well as the search. Lock striping removes
// chain-to-chain contention but still pays an atomic acquire/release per
// lookup and serializes lookups that collide on a chain; the RCU variant
// (core/rcu_demuxer.h) removes read-side locks entirely, which is the
// right trade for demux traffic (~100% reads under OLTP). The flat table
// is single-writer by design, so it appears here under the global lock —
// the cheapest probe does not excuse a serialized structure.
//
// Mix cases run `writes` erase+reinsert pairs per 1024 operations
// (0 = read-only, 64 = 6.25% connection churn), exercising the RCU
// grace-period machinery while readers run. On a single-core host threads
// time-slice: expect the lock-free read path to show up as a
// constant-factor win rather than a scaling win.
//
//   wallclock_parallel [--smoke] [--json <path>]
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/bsd_list.h"
#include "core/concurrent_demuxer.h"
#include "core/flat_demuxer.h"
#include "core/rcu_demuxer.h"
#include "core/sequent_hash.h"
#include "sim/address_space.h"

namespace {

using namespace tcpdemux;

constexpr std::uint32_t kConnections = 2000;
constexpr std::size_t kBurst = 32;

const std::vector<net::FlowKey>& shared_keys() {
  static const std::vector<net::FlowKey> keys = [] {
    sim::AddressSpaceParams ap;
    ap.clients = kConnections;
    return sim::make_client_keys(ap);
  }();
  return keys;
}

// Per-thread deterministic key sequence.
std::uint32_t next_state(std::uint32_t& state) {
  state = state * 1664525u + 1013904223u;
  return state;
}

// Runs `body(thread_index)` on `nthreads` threads, `ops_per_thread` ops
// each, released together by a spin barrier; returns aggregate wall ns/op
// (release to last finisher). Median over `reps`.
double threaded_ns_per_op(
    int nthreads, std::uint64_t ops_per_thread, int reps,
    const std::function<void(int, std::uint64_t)>& body) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nthreads));
    for (int t = 0; t < nthreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (!go.load(std::memory_order_acquire)) {
        }
        body(t, ops_per_thread);
      });
    }
    while (ready.load(std::memory_order_acquire) != nthreads) {
    }
    const auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    samples.push_back(seconds * 1e9 /
                      (static_cast<double>(ops_per_thread) * nthreads));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// One mixed-workload body over any demuxer-like structure: lookups with an
// occasional erase+reinsert, `writes_per_1024` of every 1024 ops.
template <typename D>
std::function<void(int, std::uint64_t)> mix_body(D& d,
                                                 std::uint32_t writes_per_1024) {
  const auto& keys = shared_keys();
  return [&d, &keys, writes_per_1024](int thread_index, std::uint64_t ops) {
    std::uint32_t prng =
        static_cast<std::uint32_t>(thread_index + 1) * 2654435761u;
    for (std::uint64_t op = 0; op < ops; ++op) {
      const std::uint32_t s = next_state(prng);
      const net::FlowKey& k = keys[s % kConnections];
      if ((s >> 21) % 1024 < writes_per_1024) {
        d.erase(k);  // churn one connection; population stays ~constant
        d.insert(k);
      } else {
        bench::do_not_optimize(d.lookup(k).pcb);
      }
    }
  };
}

template <typename D>
void populate(D& d) {
  for (const auto& k : shared_keys()) d.insert(k);
}

struct Case {
  std::string name;
  std::function<std::function<void(int, std::uint64_t)>(std::uint32_t)> make;
  // Owner keeps the structure alive across the run.
  std::shared_ptr<void> owner;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_bench_args(argc, argv);
  report::BenchJsonWriter writer;

  const std::vector<int> thread_counts = opts.smoke
                                             ? std::vector<int>{1, 2}
                                             : std::vector<int>{1, 2, 4, 8};
  const std::uint64_t total_ops = opts.smoke ? 50'000 : 2'000'000;
  const int reps = opts.smoke ? 1 : 3;

  std::vector<Case> cases;
  {
    auto d = std::make_shared<core::GloballyLockedDemuxer>(
        std::make_unique<core::SequentDemuxer>(core::SequentDemuxer::Options{
            19, net::HasherKind::kCrc32, true}));
    populate(*d);
    cases.push_back({"global_lock/sequent:19",
                     [d](std::uint32_t w) { return mix_body(*d, w); }, d});
  }
  {
    auto d = std::make_shared<core::GloballyLockedDemuxer>(
        std::make_unique<core::FlatDemuxer>(
            core::FlatDemuxer::Options{4096, net::HasherKind::kCrc32}));
    populate(*d);
    cases.push_back({"global_lock/flat16:4096",
                     [d](std::uint32_t w) { return mix_body(*d, w); }, d});
  }
  {
    auto d = std::make_shared<core::GloballyLockedDemuxer>(
        std::make_unique<core::BsdListDemuxer>());
    populate(*d);
    cases.push_back({"global_lock/bsd",
                     [d](std::uint32_t w) { return mix_body(*d, w); }, d});
  }
  for (const std::uint32_t chains : {19u, 101u}) {
    auto d = std::make_shared<core::ConcurrentSequentDemuxer>(
        core::ConcurrentSequentDemuxer::Options{chains,
                                                net::HasherKind::kCrc32, true});
    populate(*d);
    cases.push_back({"striped/sequent:" + std::to_string(chains),
                     [d](std::uint32_t w) { return mix_body(*d, w); }, d});
  }
  for (const std::uint32_t chains : {19u, 101u}) {
    auto d = std::make_shared<core::RcuSequentDemuxer>(
        core::RcuSequentDemuxer::Options{chains, net::HasherKind::kCrc32,
                                         true});
    populate(*d);
    cases.push_back({"rcu/sequent:" + std::to_string(chains),
                     [d](std::uint32_t w) { return mix_body(*d, w); }, d});
  }
  {
    // Demultiplexing a NIC-style burst under one epoch guard: the
    // per-lookup epoch cost is amortized kBurst ways and target lines are
    // prefetched. Read-only by construction.
    auto d = std::make_shared<core::RcuSequentDemuxer>(
        core::RcuSequentDemuxer::Options{19, net::HasherKind::kCrc32, true});
    populate(*d);
    cases.push_back(
        {"rcu_batch/sequent:19",
         [d](std::uint32_t) -> std::function<void(int, std::uint64_t)> {
           const auto& keys = shared_keys();
           return [d, &keys](int thread_index, std::uint64_t ops) {
             std::uint32_t prng =
                 static_cast<std::uint32_t>(thread_index + 1) * 2654435761u;
             std::array<net::FlowKey, kBurst> burst;
             std::array<core::LookupResult, kBurst> results;
             for (std::uint64_t op = 0; op < ops; op += kBurst) {
               for (auto& k : burst) k = keys[next_state(prng) % kConnections];
               d->lookup_batch(burst, results);
               bench::do_not_optimize(results[0].pcb);
             }
           };
         },
         d});
  }

  std::printf("%-26s %8s %7s %12s\n", "structure", "threads", "w/1024",
              "ns/op(agg)");
  const auto run_case = [&](const Case& c, int threads,
                            std::uint32_t writes_per_1024) {
    const std::uint64_t per_thread =
        std::max<std::uint64_t>(total_ops / threads, kBurst);
    const double ns = threaded_ns_per_op(threads, per_thread, reps,
                                         c.make(writes_per_1024));
    std::printf("%-26s %8d %7u %12.1f\n", c.name.c_str(), threads,
                writes_per_1024, ns);
    report::BenchRecord rec;
    rec.bench = "wallclock_parallel";
    rec.name = c.name;
    rec.add_metric("threads", threads);
    rec.add_metric("writes_per_1024", writes_per_1024);
    rec.add_metric("ns_per_op", ns);
    writer.add(std::move(rec));
  };

  // Read-only scaling sweep for every structure...
  for (const Case& c : cases) {
    for (const int threads : thread_counts) run_case(c, threads, 0);
  }
  // ...then the churn mix at the top thread count for the contended trio
  // (bsd/flat under one lock have no special write path to compare).
  const int top = thread_counts.back();
  for (const Case& c : cases) {
    if (c.name.rfind("global_lock/sequent", 0) == 0 ||
        c.name.rfind("striped/sequent:19", 0) == 0 ||
        c.name.rfind("rcu/sequent:19", 0) == 0) {
      run_case(c, top, 64);
    }
  }

  bench::finish_json(writer, opts);
  return 0;
}
