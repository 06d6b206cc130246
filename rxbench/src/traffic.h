// Client traffic for the receive-path benchmark.
//
// A workload is generated once, from a seed, into a compact step stream
// and written to a file; the measuring process reads it back. Generation
// thereby stays out of the measured process entirely, including its peak
// resident memory. A step names one client frame by connection and kind;
// the bytes on the wire (sequence and acknowledgement numbers, checksums)
// are filled in just before delivery from the client's per-connection
// state, because they depend on the server's initial sequence numbers,
// which the client learns from the SYN-ACKs like any real peer.
#ifndef RXBENCH_TRAFFIC_H_
#define RXBENCH_TRAFFIC_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "net/flow_key.h"

namespace rxbench {

namespace net = ::tcpdemux::net;

/// What one client frame is. The server's expected reaction to each kind
/// is fixed (see runner.cc), which is what makes a per-frame oracle
/// possible.
enum class FrameKind : std::uint8_t {
  kSyn,           ///< opens a connection; parked in the SYN cache
  kHandshakeAck,  ///< completes the handshake from the SYN cache
  kQuery,         ///< transaction query with payload; app answers it
  kResponseAck,   ///< acknowledges the app's response
  kFin,           ///< client close; app closes in turn
  kFinalAck,      ///< acknowledges the server's FIN; app frees the PCB
  kStaleAck,      ///< ACK to a tuple no connection holds; answered by RST
  kCorrupt,       ///< stale ACK with a broken TCP checksum; dropped
};

/// One frame of the client stream: 8 bytes, so tens of millions fit.
struct Step {
  std::uint32_t time_us = 0;  ///< virtual time within the stream's cycle
  std::uint32_t packed = 0;   ///< conn << 4 | kind

  [[nodiscard]] std::uint32_t conn() const noexcept { return packed >> 4; }
  [[nodiscard]] FrameKind kind() const noexcept {
    return static_cast<FrameKind>(packed & 0xf);
  }
  static Step make(std::uint32_t time_us, std::uint32_t conn, FrameKind kind) {
    return Step{time_us, conn << 4 | static_cast<std::uint32_t>(kind)};
  }
};

inline constexpr std::uint32_t kNoConn = 0xffffffffu;

/// Everything the measuring process needs, all derived from the seed.
struct Traffic {
  std::string workload;
  std::uint64_t seed = 0;
  /// Server-perspective flow key per connection (local = server).
  std::vector<net::FlowKey> keys;
  /// The client's initial sequence number per connection.
  std::vector<std::uint32_t> client_iss;
  /// The earlier connection on the same 4-tuple, or kNoConn. Its final
  /// ACK must be delivered, and the PCB freed, before this SYN.
  std::vector<std::uint32_t> prev_same_tuple;
  /// Connections established by handshakes during set-up.
  std::vector<std::uint32_t> initial;
  /// >0: the stream repeats with this period (every connection's step
  /// sequence is whole transactions, so a repeat continues it); 0: the
  /// stream is played once.
  std::uint64_t cycle_us = 0;
  /// The measured stream, in time order. Held in memory by the generator
  /// only; the measuring process streams it from the file (StepReader), so
  /// it adds nothing to that process's resident memory.
  std::vector<Step> steps;
  std::uint64_t step_count = 0;
  std::string path;                ///< file the steps are read from
  std::uint64_t steps_offset = 0;  ///< byte offset of the first step
  /// FNV-1a over every field above and every step: two runs that print the
  /// same value drove byte-identical input.
  std::uint64_t fingerprint = 0;
};

/// Reads a traffic file's steps in chunks, from the start again on
/// rewind().
class StepReader {
 public:
  explicit StepReader(const Traffic& traffic);
  /// Returns false at the end of the stream.
  bool next(Step& step);
  void rewind();

 private:
  const Traffic& traffic_;
  std::ifstream in_;
  std::vector<Step> buffer_;
  std::size_t pos_ = 0;
  std::uint64_t consumed_ = 0;
};

/// Generates `workload` from `seed`, with its fingerprint. Throws
/// std::invalid_argument on an unknown workload name.
[[nodiscard]] Traffic generate_traffic(const std::string& workload,
                                       std::uint64_t seed);

void write_traffic(const Traffic& traffic, const std::string& path);
/// Reads everything but the steps, then streams the steps once to verify
/// the fingerprint. Throws std::runtime_error on a missing, truncated,
/// foreign or altered file.
[[nodiscard]] Traffic read_traffic(const std::string& path);

}  // namespace rxbench

#endif  // RXBENCH_TRAFFIC_H_
