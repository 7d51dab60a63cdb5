#include "net/wire.hpp"

#include <cstdint>
#include <string_view>

#include "common/varint.hpp"

namespace ahsw::net::wire {

namespace {

using common::front_coded_size;
using common::prefixed_list_size;
using common::varint_size;
using common::zigzag;

/// The row section of a payload: the row count, then per row its bitmap
/// and its bound slots' dictionary ranks.
std::size_t row_section_size(const sparql::IdTable& t) {
  const std::size_t width = t.vars.size();
  std::size_t n = varint_size(t.rows) + t.rows * ((width + 7) / 8);
  for (std::size_t r = 0; r < t.rows; ++r) {
    bool first = true;
    std::uint32_t last = 0;
    for (std::size_t c = 0; c < width; ++c) {
      const rdf::TermId id = t.cells[r * width + c];
      if (id == rdf::kInvalidTermId) continue;
      const std::uint32_t rank = t.rank[id];
      n += first ? varint_size(rank)
                 : varint_size(zigzag(static_cast<std::int64_t>(rank) -
                                      static_cast<std::int64_t>(last)));
      first = false;
      last = rank;
    }
  }
  return n;
}

/// The whole payload: the variable and term sections, then the rows.
std::size_t encoded_size(const sparql::IdTable& t) {
  std::size_t n = prefixed_list_size(t.vars) + varint_size(t.by_rank.size());
  std::string_view prev;
  for (rdf::TermId id : t.by_rank) {
    const rdf::Term& term = *t.terms[id];
    n += front_coded_size(prev, term.lexical(), term.datatype().size(),
                          term.lang().size());
    prev = term.lexical();
  }
  return n + row_section_size(t);
}

}  // namespace

std::size_t charged_bytes(const sparql::SolutionSet& s) {
  rdf::TermDictionary dict;
  return encoded_size(sparql::id_table(sparql::intern_rows(s, dict)));
}

std::size_t charged_bytes(const sparql::MergeAccumulator& acc) {
  return acc.head_bytes() + row_section_size(acc.table());
}

std::size_t charged_bytes(const sparql::IdRows& rows) {
  return encoded_size(sparql::id_table(rows));
}

Charge charge(const sparql::SolutionSet& s) {
  return Charge(charged_bytes(s), s.byte_size());
}

Charge charge(const sparql::MergeAccumulator& acc) {
  return Charge(charged_bytes(acc), acc.raw_bytes());
}

Charge charge(const sparql::IdRows& rows) {
  return Charge(charged_bytes(rows), rows.byte_size());
}

}  // namespace ahsw::net::wire
