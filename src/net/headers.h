// Wire-format IPv4 and TCP headers: typed representations plus
// parse/serialize to network byte order.
//
// Only the fields a demultiplexer and a minimal TCP machine need are modeled
// as first-class members; IPv4 options are rejected on parse (the simulated
// stack never emits them) and TCP options are carried as an opaque blob so
// data offset round-trips exactly. The blob is held inline (a data offset
// of 15 words leaves at most 40 option bytes), so a header never touches
// the heap.
#ifndef TCPDEMUX_NET_HEADERS_H_
#define TCPDEMUX_NET_HEADERS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>

#include "net/ip_addr.h"

namespace tcpdemux::net {

/// TCP flag bits, matching their wire positions in the flags octet.
enum class TcpFlag : std::uint8_t {
  kFin = 0x01,
  kSyn = 0x02,
  kRst = 0x04,
  kPsh = 0x08,
  kAck = 0x10,
  kUrg = 0x20,
};

[[nodiscard]] constexpr std::uint8_t operator|(TcpFlag a, TcpFlag b) noexcept {
  return static_cast<std::uint8_t>(static_cast<std::uint8_t>(a) |
                                   static_cast<std::uint8_t>(b));
}
[[nodiscard]] constexpr std::uint8_t operator|(std::uint8_t a,
                                               TcpFlag b) noexcept {
  return static_cast<std::uint8_t>(a | static_cast<std::uint8_t>(b));
}

/// IPv4 header (20-byte, option-free form).
struct Ipv4Header {
  static constexpr std::size_t kSize = 20;

  std::uint8_t dscp_ecn = 0;
  std::uint16_t total_length = kSize;  ///< header + payload, bytes
  std::uint16_t identification = 0;
  bool dont_fragment = true;
  bool more_fragments = false;
  std::uint16_t fragment_offset = 0;  ///< in 8-byte units
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 6;  ///< 6 = TCP
  Ipv4Addr src;
  Ipv4Addr dst;

  /// Serializes into `out` (must be >= kSize bytes) with a freshly computed
  /// header checksum. Returns bytes written.
  std::size_t serialize(std::span<std::uint8_t> out) const;

  /// Parses a header. Fails (nullopt) on: short buffer, version != 4,
  /// IHL != 5 (options unsupported), bad header checksum, or total_length
  /// smaller than the header or larger than the buffer.
  [[nodiscard]] static std::optional<Ipv4Header> parse(
      std::span<const std::uint8_t> bytes);
};

/// TCP option bytes, stored inline. Holds at most kCapacity bytes; assign()
/// throws std::length_error beyond that.
class TcpOptionBytes {
 public:
  static constexpr std::size_t kCapacity = 40;

  TcpOptionBytes() = default;
  TcpOptionBytes(std::initializer_list<std::uint8_t> bytes) {
    assign(std::span(bytes.begin(), bytes.size()));
  }

  void assign(std::span<const std::uint8_t> bytes);
  void assign(std::size_t n, std::uint8_t value);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return bytes_.data();
  }
  [[nodiscard]] const std::uint8_t* begin() const noexcept { return data(); }
  [[nodiscard]] const std::uint8_t* end() const noexcept {
    return data() + size_;
  }
  // Implicit so the blob passes straight to span-taking parsers such as
  // parse_tcp_options.
  operator std::span<const std::uint8_t>() const noexcept {
    return {data(), size_};
  }

  friend bool operator==(const TcpOptionBytes& a,
                         const TcpOptionBytes& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<std::uint8_t, kCapacity> bytes_{};
  std::uint8_t size_ = 0;
};

/// TCP header. `options` must be a multiple of 4 bytes (pre-padded).
struct TcpHeader {
  static constexpr std::size_t kMinSize = 20;
  static constexpr std::size_t kMaxSize = kMinSize + TcpOptionBytes::kCapacity;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;
  std::uint16_t urgent_pointer = 0;
  TcpOptionBytes options;  ///< padded to 4-byte multiple

  [[nodiscard]] bool has(TcpFlag f) const noexcept {
    return (flags & static_cast<std::uint8_t>(f)) != 0;
  }
  void set(TcpFlag f) noexcept { flags |= static_cast<std::uint8_t>(f); }

  /// Header length in bytes (20 + options).
  [[nodiscard]] std::size_t size() const noexcept {
    return kMinSize + options.size();
  }

  /// Serializes the header into `out` (must be >= size() bytes) with the
  /// checksum field zeroed; the caller computes the TCP checksum over
  /// pseudo-header + header + payload and patches bytes 16..17.
  /// Returns bytes written.
  std::size_t serialize(std::span<std::uint8_t> out) const;

  /// Parses a header. Fails on: short buffer, data offset < 5 or beyond the
  /// buffer. Does not verify the checksum (that needs the pseudo-header;
  /// see Packet::parse).
  [[nodiscard]] static std::optional<TcpHeader> parse(
      std::span<const std::uint8_t> bytes);

  /// Human-readable flag string, e.g. "SYN|ACK".
  [[nodiscard]] std::string flags_to_string() const;
};

}  // namespace tcpdemux::net

#endif  // TCPDEMUX_NET_HEADERS_H_
