// LEB128-style variable-length integer primitives and the sizes of the
// framed items built from them, shared by the wire codec (src/net/wire) and
// anything else that needs compact framing (the merge accumulator of
// sparql/columnar keeps its payload size with them).
//
// Header-only and dependency-free on purpose: `common` sits below every
// other layer, so the encoding primitives can be reused without dragging
// the full codec (which knows about solution sets) below `net`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ahsw::common {

/// Encoded size of `v` as an unsigned LEB128 varint (1..10 bytes).
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Append `v` to `out` as an unsigned LEB128 varint.
inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Decode one varint from `in` starting at `pos`, advancing `pos` past it.
/// Returns false on truncated or over-long (> 10 byte) input.
inline bool get_varint(std::string_view in, std::size_t& pos,
                       std::uint64_t& out) noexcept {
  out = 0;
  int shift = 0;
  while (pos < in.size() && shift < 64) {
    const auto byte = static_cast<std::uint8_t>(in[pos++]);
    out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
  }
  return false;
}

/// ZigZag mapping for signed deltas (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...),
/// so small negative gaps stay small on the wire.
[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Length of the longest common prefix of `a` and `b` (front coding).
[[nodiscard]] inline std::size_t common_prefix(std::string_view a,
                                               std::string_view b) noexcept {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

/// Encoded size of a string of `len` bytes behind its varint length.
[[nodiscard]] constexpr std::size_t prefixed_size(std::size_t len) noexcept {
  return varint_size(len) + len;
}

/// Encoded size of `items` behind their varint count, each behind its
/// varint length.
[[nodiscard]] inline std::size_t prefixed_list_size(
    const std::vector<std::string>& items) noexcept {
  std::size_t n = varint_size(items.size());
  for (const std::string& s : items) n += prefixed_size(s.size());
  return n;
}

/// Encoded size of one front-coded dictionary entry: a kind byte, the
/// length of the prefix `lexical` shares with the previous entry's lexical
/// `prev`, the rest of `lexical`, then the datatype and the language tag
/// (`datatype_len` and `lang_len` bytes), each behind its varint length.
[[nodiscard]] inline std::size_t front_coded_size(
    std::string_view prev, std::string_view lexical, std::size_t datatype_len,
    std::size_t lang_len) noexcept {
  const std::size_t lcp = common_prefix(prev, lexical);
  return 1 + varint_size(lcp) + prefixed_size(lexical.size() - lcp) +
         prefixed_size(datatype_len) + prefixed_size(lang_len);
}

}  // namespace ahsw::common
