// Compressed wire format for solution-set and triple payloads, and the
// sizer that charges it.
//
// Every charged `data`/`result` message used to ship rows at their raw
// in-memory size (full lexical forms repeated per row). This format's size
// is what the cost model charges instead: a dictionary-compressed encoding in the
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
// This component is the charge sizer only: the simulator never serializes
// a payload. `charged_bytes` computes the encoded size above from an id
// view of the payload (sparql::IdTable): the sorted vars, the terms in rank
// order with their front-coding prefix lengths, and per row the bitmap plus
// the varint or zigzag rank deltas; `charge` pairs it with the raw size as
// the net::Charge a send takes. The same formula sizes the id relations
// the distributed processor ships (sparql::IdRows: provider scans, merged
// and joined sets), the id-space merge accumulator of the scatter and chain
// strategies, which is sized at every chain hop without ever being
// materialized (it keeps its variable and term sections' size as it grows,
// with the framing sizes of common/varint.hpp that this sizing uses too),
// and a SolutionSet (the rdfpeers baseline). A reference encoder and
// decoder of the format live with the tests (tests/support/wire_codec),
// which pin charged_bytes == encode().size().
#pragma once

#include <cstddef>

#include "net/network.hpp"
#include "sparql/columnar.hpp"
#include "sparql/solution.hpp"

namespace ahsw::net::wire {

/// The Charge of shipping a payload: its encoded size (charged_bytes) as
/// wire, its uncompressed size (byte_size, raw_bytes) as raw. These are the
/// only functions that make a Charge whose raw differs from its wire.
[[nodiscard]] Charge charge(const sparql::SolutionSet& s);
[[nodiscard]] Charge charge(const sparql::MergeAccumulator& acc);
[[nodiscard]] Charge charge(const sparql::IdRows& rows);

/// What Network::send bills for shipping `s`: its encoded size. The raw
/// (uncompressed) size stays observable as SolutionSet::byte_size() and
/// travels with every send as its Charge's raw().
[[nodiscard]] std::size_t charged_bytes(const sparql::SolutionSet& s);

/// What shipping the accumulator's merged set charges: the variable and
/// term sections it keeps as it grows plus one integer pass over the rows
/// (the chain strategies ship it at every hop).
[[nodiscard]] std::size_t charged_bytes(const sparql::MergeAccumulator& acc);

/// What shipping an id relation charges (its materialized set's encoded
/// size), sized from its dictionary ids; its raw counterpart is
/// IdRows::byte_size().
[[nodiscard]] std::size_t charged_bytes(const sparql::IdRows& rows);

}  // namespace ahsw::net::wire
