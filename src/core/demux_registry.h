// Factory for demuxer instances, used by examples, benches, and the replay
// harness to instantiate algorithms uniformly.
#ifndef TCPDEMUX_CORE_DEMUX_REGISTRY_H_
#define TCPDEMUX_CORE_DEMUX_REGISTRY_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/demuxer.h"
#include "net/hashers.h"

namespace tcpdemux::core {

enum class Algorithm : std::uint8_t {
  kBsd,           ///< §3.1 linear list + 1-entry cache
  kMtf,           ///< §3.2 Crowcroft move-to-front
  kSrCache,       ///< §3.3 Partridge/Pink send/receive cache
  kSequent,       ///< §3.4 hash chains + per-chain cache
  kHashedMtf,     ///< §3.5 rejected combination
  kConnectionId,  ///< §3.5 protocol-extension strawman
  kDynamic,       ///< self-resizing hash chains (post-paper extension)
  kRcu,           ///< lock-free-read hash chains + epoch reclaim (RCU)
  kFlat16,        ///< robin-hood flat table, 16-slot group-probed tags
  kSharded,       ///< N RSS-steered shards, each wrapping an inner backend
};

struct DemuxConfig {
  Algorithm algorithm = Algorithm::kSequent;
  std::uint32_t chains = 19;  ///< Sequent / hashed-MTF only
  net::HasherKind hasher = net::HasherKind::kXorFold;
  bool per_chain_cache = true;       ///< Sequent only
  std::size_t id_capacity = 65536;   ///< connection-ID only
  std::size_t flat_capacity = 1024;  ///< flat16 (initial slots)
  // Adversarial-resilience knobs (see DESIGN.md "Adversarial resilience").
  std::uint32_t hash_seed = 0;  ///< 0 = unkeyed (paper-fidelity default)
  /// sequent/flat16: seed-rotating rehash on the overload watermark.
  bool rehash_on_overload = false;
  std::size_t max_pcbs = 0;  ///< sequent/dynamic/flat16: 0 = unbounded
  /// dynamic/flat16: grow by bounded-pause incremental migration
  /// instead of a stop-the-world rebuild (see DESIGN.md "Incremental resize
  /// & degradation ladder").
  bool incremental = false;
  // Sharded receive path (algorithm == kSharded only; see DESIGN.md
  // "Sharded receive path").
  std::uint32_t shards = 0;   ///< shard count (>= 1 when kSharded)
  std::string inner_spec{};   ///< per-shard backend spec, re-parsed at build
};

/// Instantiates the configured demuxer.
[[nodiscard]] std::unique_ptr<Demuxer> make_demuxer(const DemuxConfig& config);

/// Parses a spec string:
///   "bsd" | "mtf" | "srcache"
///   "connection_id[:capacity]"               (negotiated ID-space size)
///   "sequent[:chains[:hasher][:opts...]]"   e.g. "sequent:101:crc32"
///   "hashed_mtf[:chains[:hasher]]"
///   "dynamic[:initial_chains[:hasher][:opts...]]"
///   "rcu[:chains[:hasher][:opts...]]"        (lock-free-read Sequent)
///   "flat16[:capacity[:hasher][:opts...]]"   (open-addressing flat table,
///                                            SIMD 16-slot group probing)
///   "sharded:N:<inner-spec>"                 (N RSS-steered shards, each an
///                                            instance of the inner spec —
///                                            any spec above; sharded itself
///                                            cannot nest)
///
/// The count token, when an algorithm takes one, must come directly after
/// the algorithm name; the hasher token and the option tokens may then
/// appear in any order, each at most once. So "dynamic:incremental" and
/// "flat16:rehash:crc32c" are valid, while conflicting duplicates
/// ("flat16:incremental:incremental", two "max=N" tokens, two hasher
/// tokens) are rejected — nesting specs under sharded makes silent
/// last-wins unacceptable.
///
/// A hasher token may carry a hex seed suffix, "hasher@1f2e" — the keyed
/// family (seed 0 == "@0" == unkeyed, bit-identical to the plain name).
/// A token may carry at most one "@"; "crc32@1f@2e" is rejected.
/// hashed_mtf, as a deliberately frozen strawman, rejects seeds.
///
/// Option tokens, each at most once:
///   "nocache"   sequent/rcu: disable the per-chain cache
///   "rehash"    sequent/flat16: rehash with a fresh seed on overload
///               watermark
///   "max=N"     sequent/dynamic/flat16: shed inserts beyond N PCBs (N > 0)
///   "incremental"  dynamic/flat16: bounded-pause incremental
///               resize with the memory-pressure degradation ladder
/// Returns nullopt on any unrecognized, duplicate, or unsupported token.
[[nodiscard]] std::optional<DemuxConfig> parse_demux_spec(
    std::string_view spec);

/// As above, but on failure writes a human-readable reason into `*error`
/// (when non-null) naming the offending token — "duplicate 'incremental'
/// token", "'nocache' is not supported by flat16", ... Callers that surface
/// spec strings to users (benches, examples, nested sharded specs) use
/// this overload.
[[nodiscard]] std::optional<DemuxConfig> parse_demux_spec(
    std::string_view spec, std::string* error);

/// Parses a hasher name as printed by net::hasher_name().
[[nodiscard]] std::optional<net::HasherKind> parse_hasher_name(
    std::string_view name);

/// Parses "name" or "name@hexseed" (1-8 hex digits) into a HashSpec —
/// the inverse of net::hash_spec_name().
[[nodiscard]] std::optional<net::HashSpec> parse_hash_spec_token(
    std::string_view token);

/// Short algorithm name for display.
[[nodiscard]] std::string_view algorithm_name(Algorithm algorithm) noexcept;

}  // namespace tcpdemux::core

#endif  // TCPDEMUX_CORE_DEMUX_REGISTRY_H_
