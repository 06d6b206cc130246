#include "traffic.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "sim/address_space.h"
#include "sim/tpca_workload.h"
#include "sim/workloads/churn_workload.h"

namespace rxbench {
namespace {

namespace sim = ::tcpdemux::sim;

// splitmix64: the benchmark's own deterministic stream for client ISNs and
// churn fault injection (the library generators carry their own Rng).
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() noexcept {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
};

std::uint32_t to_us(double seconds) {
  return static_cast<std::uint32_t>(seconds * 1e6);
}

void fill_client_iss(Traffic& t) {
  SplitMix rng{t.seed ^ 0x1551u};
  t.client_iss.resize(t.keys.size());
  for (auto& iss : t.client_iss) iss = static_cast<std::uint32_t>(rng.next());
}

// The paper's TPC/A population (sim::generate_tpca_trace), closed-loop
// users, every connection established during set-up. Only whole
// transactions (query and the ack of its response) are kept, so the
// stream can repeat: each connection's step sequence then continues
// seamlessly into the next cycle.
Traffic make_tpca(const std::string& name, std::uint32_t users,
                  double cycle_s, std::uint64_t seed) {
  sim::TpcaWorkloadParams params;
  params.users = users;
  params.think_mean = 10.0;
  params.response_time = 0.2;
  params.rtt = 0.001;
  params.duration = cycle_s;
  params.warmup = 30.0;
  params.open_loop = false;
  params.seed = seed;
  const sim::Trace trace = sim::generate_tpca_trace(params);

  Traffic t;
  t.workload = name;
  t.seed = seed;
  t.cycle_us = to_us(cycle_s);
  sim::AddressSpaceParams space;
  space.clients = users;
  t.keys = sim::make_client_keys(space);
  t.prev_same_tuple.assign(users, kNoConn);
  t.initial.resize(users);
  for (std::uint32_t c = 0; c < users; ++c) t.initial[c] = c;

  std::vector<std::uint32_t> open_query(users, kNoConn);
  std::vector<bool> keep;
  t.steps.reserve(trace.arrivals());
  keep.reserve(trace.arrivals());
  for (const sim::TraceEvent& e : trace.events) {
    if (e.kind == sim::TraceEventKind::kArrivalData) {
      open_query[e.conn] = static_cast<std::uint32_t>(t.steps.size());
      t.steps.push_back(Step::make(to_us(e.time), e.conn, FrameKind::kQuery));
      keep.push_back(false);
    } else if (e.kind == sim::TraceEventKind::kArrivalAck &&
               open_query[e.conn] != kNoConn) {
      keep[open_query[e.conn]] = true;
      open_query[e.conn] = kNoConn;
      t.steps.push_back(
          Step::make(to_us(e.time), e.conn, FrameKind::kResponseAck));
      keep.push_back(true);
    }
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < t.steps.size(); ++i) {
    if (keep[i]) t.steps[out++] = t.steps[i];
  }
  t.steps.resize(out);
  return t;
}

// sim/workloads churn: short sessions over narrow per-host ephemeral port
// ranges, so 4-tuples recur. Each session is SYN, handshake ACK, queries,
// FIN and the final ACK. Two kinds of frames are mixed in: ACKs to tuples
// no session holds (2%, answered by RST) and the same with a broken TCP
// checksum (1%, dropped).
Traffic make_churn(const std::string& name, std::uint32_t users,
                   double duration_s, std::uint64_t seed) {
  sim::workloads::ChurnWorkloadParams params;
  params.users = users;
  params.session_txns_mean = 4.0;
  params.think_mean = 1.0;
  params.response_time = 0.05;
  params.rtt = 0.001;
  params.duration = duration_s;
  params.port_range = 16;
  params.seed = seed;
  sim::workloads::ChurnWorkload churn =
      sim::workloads::generate_churn_workload(params);

  Traffic t;
  t.workload = name;
  t.seed = seed;
  t.keys = std::move(churn.workload.keys);
  const auto conns = static_cast<std::uint32_t>(t.keys.size());

  t.prev_same_tuple.assign(conns, kNoConn);
  {
    std::unordered_map<net::FlowKey, std::uint32_t> last;
    last.reserve(conns);
    for (std::uint32_t c = 0; c < conns; ++c) {
      auto [it, fresh] = last.try_emplace(t.keys[c], c);
      if (!fresh) {
        t.prev_same_tuple[c] = it->second;
        it->second = c;
      }
    }
  }

  // Connections whose first event is not an open are pre-established.
  std::vector<bool> seen(conns, false);
  std::vector<bool> opened(conns, false);
  for (const sim::TraceEvent& e : churn.workload.trace.events) {
    if (!seen[e.conn]) {
      seen[e.conn] = true;
      opened[e.conn] = e.kind == sim::TraceEventKind::kOpen;
    }
  }
  for (std::uint32_t c = 0; c < conns; ++c) {
    if (!opened[c]) t.initial.push_back(c);
  }

  SplitMix rng{seed ^ 0xc0ffeeu};
  const auto& events = churn.workload.trace.events;
  t.steps.reserve(events.size());
  for (const sim::TraceEvent& e : events) {
    const std::uint32_t us = to_us(e.time);
    switch (e.kind) {
      case sim::TraceEventKind::kOpen:
        t.steps.push_back(Step::make(us, e.conn, FrameKind::kSyn));
        t.steps.push_back(Step::make(us, e.conn, FrameKind::kHandshakeAck));
        break;
      case sim::TraceEventKind::kArrivalData:
        t.steps.push_back(Step::make(us, e.conn, FrameKind::kQuery));
        break;
      case sim::TraceEventKind::kArrivalAck:
        t.steps.push_back(Step::make(us, e.conn, FrameKind::kResponseAck));
        break;
      case sim::TraceEventKind::kClose:
        t.steps.push_back(Step::make(us, e.conn, FrameKind::kFin));
        t.steps.push_back(Step::make(us, e.conn, FrameKind::kFinalAck));
        break;
      case sim::TraceEventKind::kTransmit:
        continue;
    }
    const double r = rng.uniform();
    if (r < 0.03) {
      // A stale frame names a pre-established connection only to borrow
      // its client host; the runner swaps in a port outside every host's
      // ephemeral range.
      const std::uint32_t host =
          t.initial[rng.next() % t.initial.size()];
      t.steps.push_back(Step::make(
          us, host, r < 0.02 ? FrameKind::kStaleAck : FrameKind::kCorrupt));
    }
  }
  return t;
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void word(std::uint64_t w) noexcept {
    h ^= w;
    h *= 0x100000001b3ULL;
  }
  template <typename T>
  void words(const std::vector<T>& v) {
    word(v.size());
    for (const T& x : v) word(x);
  }
  void step(const Step& s) noexcept {
    word(static_cast<std::uint64_t>(s.time_us) << 32 | s.packed);
  }
};

constexpr char kMagic[8] = {'R', 'X', 'S', 'T', 'E', 'P', '0', '2'};
constexpr std::size_t kChunkSteps = 4096;

template <typename T>
void write_vec(std::ofstream& out, const std::vector<T>& v) {
  const std::uint64_t n = v.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
}

template <typename T>
void read_pod(std::ifstream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw std::runtime_error("traffic file: truncated");
}

template <typename T>
void read_vec(std::ifstream& in, std::vector<T>& v) {
  std::uint64_t n = 0;
  read_pod(in, n);
  if (n > (std::uint64_t{1} << 32)) {
    throw std::runtime_error("traffic file: bad length");
  }
  v.resize(n);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  if (!in) throw std::runtime_error("traffic file: truncated");
}

// Keys travel as three words (local addr, foreign addr, ports) so the file
// format does not depend on FlowKey's padding.
std::vector<std::uint32_t> key_words(const std::vector<net::FlowKey>& keys) {
  std::vector<std::uint32_t> w;
  w.reserve(keys.size() * 3);
  for (const net::FlowKey& k : keys) {
    w.push_back(k.local_addr.value());
    w.push_back(k.foreign_addr.value());
    w.push_back(static_cast<std::uint32_t>(k.local_port) << 16 |
                k.foreign_port);
  }
  return w;
}

// Everything but the steps, in file order.
Fnv header_hash(const Traffic& t) {
  Fnv f;
  for (const char ch : t.workload) f.word(static_cast<unsigned char>(ch));
  f.word(t.seed);
  f.word(t.cycle_us);
  f.words(key_words(t.keys));
  f.words(t.client_iss);
  f.words(t.prev_same_tuple);
  f.words(t.initial);
  f.word(t.step_count);
  return f;
}

void finish(Traffic& t) {
  fill_client_iss(t);
  t.steps.shrink_to_fit();
  t.step_count = t.steps.size();
  Fnv f = header_hash(t);
  for (const Step& s : t.steps) f.step(s);
  t.fingerprint = f.h;
}

}  // namespace

// Stream sizes: a TPC/A cycle holds ~0.4M frames at 2k users and ~3.8M at
// 2M (about 60% of the users transact in one 10 s cycle). Churn cannot
// repeat, so its 40 s hold ~23M frames: a 20 s run at up to ~1.1M frames/s
// (uncontended runs of this commit reach 0.9M). A build fast enough to
// exhaust it measures less time, which the detail line's timed_s shows.
Traffic generate_traffic(const std::string& workload, std::uint64_t seed) {
  Traffic t;
  if (workload == "tpca_2k") {
    t = make_tpca(workload, 2'000, 1000.0, seed);
  } else if (workload == "tpca_2m") {
    t = make_tpca(workload, 2'000'000, 10.0, seed);
  } else if (workload == "churn_200k") {
    t = make_churn(workload, 200'000, 40.0, seed);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  finish(t);
  return t;
}

void write_traffic(const Traffic& t, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(kMagic, sizeof kMagic);
  write_vec(out, std::vector<char>(t.workload.begin(), t.workload.end()));
  out.write(reinterpret_cast<const char*>(&t.seed), sizeof t.seed);
  out.write(reinterpret_cast<const char*>(&t.cycle_us), sizeof t.cycle_us);
  write_vec(out, key_words(t.keys));
  write_vec(out, t.client_iss);
  write_vec(out, t.prev_same_tuple);
  write_vec(out, t.initial);
  out.write(reinterpret_cast<const char*>(&t.fingerprint),
            sizeof t.fingerprint);
  write_vec(out, t.steps);
  if (!out) throw std::runtime_error("traffic file: write failed: " + path);
}

Traffic read_traffic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[sizeof kMagic] = {};
  in.read(magic, sizeof magic);
  if (!in || !std::equal(magic, magic + sizeof magic, kMagic)) {
    throw std::runtime_error("traffic file: missing or foreign: " + path);
  }
  Traffic t;
  t.path = path;
  std::vector<char> name;
  read_vec(in, name);
  t.workload.assign(name.begin(), name.end());
  read_pod(in, t.seed);
  read_pod(in, t.cycle_us);
  std::vector<std::uint32_t> kw;
  read_vec(in, kw);
  t.keys.reserve(kw.size() / 3);
  for (std::size_t i = 0; i + 2 < kw.size(); i += 3) {
    t.keys.push_back(net::FlowKey{
        net::Ipv4Addr(kw[i]), static_cast<std::uint16_t>(kw[i + 2] >> 16),
        net::Ipv4Addr(kw[i + 1]), static_cast<std::uint16_t>(kw[i + 2])});
  }
  read_vec(in, t.client_iss);
  read_vec(in, t.prev_same_tuple);
  read_vec(in, t.initial);
  read_pod(in, t.fingerprint);
  read_pod(in, t.step_count);
  t.steps_offset = static_cast<std::uint64_t>(in.tellg());
  const std::size_t conns = t.keys.size();
  if (t.client_iss.size() != conns || t.prev_same_tuple.size() != conns) {
    throw std::runtime_error("traffic file: inconsistent tables: " + path);
  }
  for (const std::uint32_t c : t.initial) {
    if (c >= conns) throw std::runtime_error("traffic file: bad initial");
  }

  Fnv f = header_hash(t);
  StepReader reader(t);
  Step s;
  std::uint64_t n = 0;
  while (reader.next(s)) {
    if (s.conn() >= conns) throw std::runtime_error("traffic file: bad step");
    f.step(s);
    ++n;
  }
  if (n != t.step_count || f.h != t.fingerprint) {
    throw std::runtime_error("traffic file: fingerprint mismatch: " + path);
  }
  return t;
}

StepReader::StepReader(const Traffic& traffic)
    : traffic_(traffic), in_(traffic.path, std::ios::binary) {
  rewind();
}

void StepReader::rewind() {
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(traffic_.steps_offset));
  buffer_.clear();
  pos_ = 0;
  consumed_ = 0;
}

bool StepReader::next(Step& step) {
  if (pos_ == buffer_.size()) {
    const std::uint64_t left = traffic_.step_count - consumed_;
    if (left == 0) return false;
    buffer_.resize(static_cast<std::size_t>(
        std::min<std::uint64_t>(left, kChunkSteps)));
    in_.read(reinterpret_cast<char*>(buffer_.data()),
             static_cast<std::streamsize>(buffer_.size() * sizeof(Step)));
    if (!in_) throw std::runtime_error("traffic file: truncated steps");
    consumed_ += buffer_.size();
    pos_ = 0;
  }
  step = buffer_[pos_++];
  return true;
}

}  // namespace rxbench
