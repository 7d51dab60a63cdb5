// Reference encoder and decoder of the wire format that
// net::wire::charged_bytes sizes (the format is specified in
// src/net/wire.hpp).
//
// The simulator never serializes a payload: every charge is computed
// analytically from ids. This codec builds the real byte string, so the
// tests can pin charged_bytes(x) == encode(x).size() (tests/net/wire_test.cpp,
// tests/sparql/merge_accumulator_test.cpp, tests/sparql/scan_rows_test.cpp)
// and keep the decoder's hostile-input bounds tested. It stays independent
// of the code it checks: it builds its own std::map dictionary and uses
// neither net::wire nor sparql::IdTable. Test-only; nothing under src/
// includes this.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/triple.hpp"
#include "sparql/solution.hpp"

namespace ahsw::net::wire_codec {

/// Append `v` to `out` as an unsigned LEB128 varint.
void put_varint(std::string& out, std::uint64_t v);

/// Encode `s` into the payload format.
[[nodiscard]] std::string encode(const sparql::SolutionSet& s);

/// Most rows a payload without variables may declare. Such rows encode to
/// zero bytes each, so the bytes left cannot bound their count; decode
/// rejects a larger count instead of building that many empty rows.
inline constexpr std::uint64_t kMaxEmptyRows = std::uint64_t{1} << 20;

/// Decode a payload produced by `encode`, replacing `out`. Returns false on
/// malformed input (truncated varint, index out of range, a count larger
/// than the bytes left or, without variables, than kMaxEmptyRows, an
/// unknown term kind, ...) without allocating for the bad count.
[[nodiscard]] bool decode(std::string_view in, sparql::SolutionSet& out);

/// Encode a triple payload (the same format with an implicit s, p, o
/// schema and no bitmaps).
[[nodiscard]] std::string encode(const std::vector<rdf::Triple>& triples);
[[nodiscard]] bool decode(std::string_view in,
                          std::vector<rdf::Triple>& out);

}  // namespace ahsw::net::wire_codec
