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
// `charged_bytes` is the accounting entry point. It never builds a byte
// string: the size is computed from an id view of the payload
// (sparql::IdTable) — the sorted vars, the terms in rank order with their
// front-coding prefix lengths, and per row the bitmap plus the varint or
// zigzag rank deltas. The same formula sizes the id relations the
// distributed processor ships (sparql::IdRows: provider scans, merged and
// joined sets), the id-space merge accumulator of the scatter and chain
// strategies, which is sized at every chain hop without ever being
// materialized (it keeps its variable and term sections' size as it grows,
// with the framing sizes of common/varint.hpp that this sizing uses too),
// and a SolutionSet (the rdfpeers baseline). encode/decode remain the
// codec, and the tests pin encoded_size == encode().size(). Encoder byte
// counters live only in this component (lint rule A2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/triple.hpp"
#include "sparql/columnar.hpp"
#include "sparql/solution.hpp"

namespace ahsw::net::wire {

/// Encode `s` into the payload format above.
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

/// Encode a triple payload (CONSTRUCT/DESCRIBE graphs, store shipping).
[[nodiscard]] std::string encode(const std::vector<rdf::Triple>& triples);
[[nodiscard]] bool decode(std::string_view in,
                          std::vector<rdf::Triple>& out);

/// Encoded payload size (== encode(...).size()), computed fresh and
/// analytically from the id view, without encoding.
[[nodiscard]] std::size_t encoded_size(const sparql::IdTable& t);
[[nodiscard]] std::size_t encoded_size(const sparql::SolutionSet& s);
[[nodiscard]] std::size_t encoded_size(const std::vector<rdf::Triple>& t);

/// What Network::send charges for shipping `s`: its encoded size. The raw
/// (uncompressed) size stays observable as SolutionSet::byte_size() and
/// travels with every send as its `raw_bytes` counterpart.
[[nodiscard]] std::size_t charged_bytes(const sparql::SolutionSet& s);

/// What shipping the accumulator's merged set charges: the variable and
/// term sections it keeps as it grows plus one integer pass over the rows
/// (the chain strategies ship it at every hop).
[[nodiscard]] std::size_t charged_bytes(const sparql::MergeAccumulator& acc);

/// What shipping an id relation charges (== encode(rows.materialize())
/// .size()), sized from its dictionary ids; its raw counterpart is
/// IdRows::byte_size().
[[nodiscard]] std::size_t charged_bytes(const sparql::IdRows& rows);

}  // namespace ahsw::net::wire
