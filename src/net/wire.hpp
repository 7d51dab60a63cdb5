// Compressed wire format for solution-set and triple payloads.
//
// Every charged `data`/`result` message used to ship rows at their raw
// in-memory size (full lexical forms repeated per row). This codec is what
// the cost model charges instead: a dictionary-compressed encoding in the
// spirit of TriAD / Partout (see PAPERS.md), where each payload carries a
// term-dictionary delta once and rows reference terms by dense id.
//
//   payload := varint(nvars) var*            vars sorted ascending
//              varint(nterms) term*          terms sorted by Term ordering,
//                                            lexicals front-coded against
//                                            the previous term
//              varint(nrows) row*
//   term    := kind byte, varint(lcp), varint(suffix len), suffix,
//              varint(datatype len), datatype, varint(lang len), lang
//   row     := presence bitmap (ceil(nvars/8) bytes), then one dictionary
//              index per bound slot in var order: first absolute, the rest
//              zigzag deltas against the previous slot's index
//
// The triple payload is the same with an implicit 3-column schema (s, p, o).
//
// Both section orders are canonical (sorted vars, sorted terms, absolute
// per-row indexes), so the encoded *size* of a set depends only on its
// multiset of rows, never on row order. That invariant is what keeps the
// parallel batch driver byte-identical to the serial one: any execution
// that produces the same rows is charged the same bytes.
//
// `charged_bytes` is the accounting entry point: it memoizes the encoded
// size on the set (see SolutionSet's wire cache) because the distributed
// processor asks at every ship and chain hop. Encoder byte counters and
// size computations live only in this component (lint rule A2).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/triple.hpp"
#include "sparql/solution.hpp"

namespace ahsw::net::wire {

/// Encode `s` into the payload format above.
[[nodiscard]] std::string encode(const sparql::SolutionSet& s);

/// Decode a payload produced by `encode`, replacing `out`. Returns false on
/// malformed input (truncated varint, index out of range, ...).
[[nodiscard]] bool decode(std::string_view in, sparql::SolutionSet& out);

/// Encode a triple payload (CONSTRUCT/DESCRIBE graphs, store shipping).
[[nodiscard]] std::string encode(const std::vector<rdf::Triple>& triples);
[[nodiscard]] bool decode(std::string_view in,
                          std::vector<rdf::Triple>& out);

/// Encoded payload size of `s` (== encode(s).size()), computed fresh.
[[nodiscard]] std::size_t encoded_size(const sparql::SolutionSet& s);
[[nodiscard]] std::size_t encoded_size(const std::vector<rdf::Triple>& t);

/// What Network::send charges for shipping `s`: the encoded size, memoized
/// on the set and invalidated by any mutation. The raw (uncompressed) size
/// stays observable as SolutionSet::byte_size() and travels with every send
/// as its `raw_bytes` counterpart.
[[nodiscard]] std::size_t charged_bytes(const sparql::SolutionSet& s);

/// Raw (uncompressed) size of a triple payload, for raw-byte accounting.
[[nodiscard]] std::size_t raw_bytes(const std::vector<rdf::Triple>& t);

}  // namespace ahsw::net::wire
