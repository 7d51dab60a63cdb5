// Hashing primitives shared across the code base.
//
// Chord identifiers, the six-key distributed index, and the term dictionary
// all need a stable, platform-independent hash. std::hash gives no such
// guarantee, so we provide FNV-1a (64-bit) plus a strong finalizer, with
// domain separation for multi-field keys.
#pragma once

#include <cstdint>
#include <string_view>

namespace ahsw::common {

/// 64-bit FNV-1a over a byte string. Stable across platforms and runs.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// Continue an FNV-1a hash from a previous state (for multi-part keys).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes,
                                    std::uint64_t state) noexcept;

/// SplitMix64 finalizer: a strong bit mixer used to post-process FNV output
/// so that keys spread uniformly around the Chord ring.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hash of one logical field with a domain-separation tag, so that e.g. the
/// subject index key of "x" never collides by construction with the
/// predicate index key of "x".
[[nodiscard]] std::uint64_t tagged_hash(std::uint8_t tag,
                                        std::string_view a) noexcept;

/// The byte a two-field tagged_hash feeds between its fields: outside the
/// value alphabet of N-Triples terms, so ("ab","c") and ("a","bc") hash
/// differently.
inline constexpr std::string_view kFieldSeparator = "\x1f";

/// Hash of a two-field key (e.g. (s,p) or (p,o)) with domain separation and
/// an unambiguous field boundary.
[[nodiscard]] std::uint64_t tagged_hash(std::uint8_t tag, std::string_view a,
                                        std::string_view b) noexcept;

}  // namespace ahsw::common
