#include "net/wire.hpp"

#include <algorithm>
#include <cstdint>
#include <map>

#include "common/varint.hpp"

namespace ahsw::net::wire {

namespace {

using common::common_prefix;
using common::front_coded_size;
using common::get_varint;
using common::prefixed_list_size;
using common::put_varint;
using common::unzigzag;
using common::varint_size;
using common::zigzag;

/// Sorted unique terms plus a term -> dictionary-index map. Sorting by
/// Term::operator<=> makes the section canonical: the same term multiset
/// always yields the same dictionary, whatever order rows arrived in.
struct Dictionary {
  std::vector<const rdf::Term*> terms;  // sorted, unique
  std::map<rdf::Term, std::uint32_t> index;

  void collect(const rdf::Term& t) { index.emplace(t, 0); }

  void seal() {
    terms.reserve(index.size());
    std::uint32_t id = 0;
    for (auto& [term, idx] : index) {
      idx = id++;
      terms.push_back(&term);
    }
  }

  [[nodiscard]] std::uint32_t id_of(const rdf::Term& t) const {
    return index.at(t);
  }
};

void encode_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out.append(s);
}

/// Front-coded dictionary section: kind, shared-prefix length against the
/// previous term's lexical, suffix, datatype, language tag.
void encode_dictionary(std::string& out, const Dictionary& dict) {
  put_varint(out, dict.terms.size());
  std::string_view prev;
  for (const rdf::Term* t : dict.terms) {
    out.push_back(static_cast<char>(t->kind()));
    const std::size_t lcp = common_prefix(prev, t->lexical());
    put_varint(out, lcp);
    encode_string(out, std::string_view(t->lexical()).substr(lcp));
    encode_string(out, t->datatype());
    encode_string(out, t->lang());
    prev = t->lexical();
  }
}

/// Read a count of items that each occupy at least one input byte; a count
/// beyond the bytes left is malformed, so nothing is allocated for it.
bool get_count(std::string_view in, std::size_t& pos, std::uint64_t& n) {
  return get_varint(in, pos, n) && n <= in.size() - pos;
}

bool decode_string(std::string_view in, std::size_t& pos, std::string& out) {
  std::uint64_t len = 0;
  if (!get_count(in, pos, len)) return false;
  out.assign(in.substr(pos, len));
  pos += len;
  return true;
}

/// The next dictionary index of a row: `raw` is absolute for the first
/// slot and a zigzag delta against `prev` after it. False when the index
/// leaves [0, nterms).
bool next_index(std::uint64_t raw, bool first, std::uint64_t prev,
                std::size_t nterms, std::uint64_t& id) {
  if (first) {
    id = raw;
  } else {
    const std::int64_t delta = unzigzag(raw);
    // Unsigned wrap-around is defined; an index that moved below zero
    // wraps to a huge value and fails the range check below.
    id = prev + static_cast<std::uint64_t>(delta);
  }
  return id < nterms;
}

rdf::Term make_term(rdf::TermKind kind, std::string lexical,
                    std::string datatype, std::string lang) {
  switch (kind) {
    case rdf::TermKind::kIri:
      return rdf::Term::iri(std::move(lexical));
    case rdf::TermKind::kBlank:
      return rdf::Term::blank(std::move(lexical));
    case rdf::TermKind::kLiteral:
      if (!lang.empty()) {
        return rdf::Term::lang_literal(std::move(lexical), std::move(lang));
      }
      if (!datatype.empty()) {
        return rdf::Term::typed_literal(std::move(lexical),
                                        std::move(datatype));
      }
      return rdf::Term::literal(std::move(lexical));
  }
  return {};
}

bool decode_dictionary(std::string_view in, std::size_t& pos,
                       std::vector<rdf::Term>& terms) {
  std::uint64_t nterms = 0;
  if (!get_count(in, pos, nterms)) return false;
  terms.clear();
  terms.reserve(nterms);
  std::string prev;
  for (std::uint64_t i = 0; i < nterms; ++i) {
    if (pos >= in.size()) return false;
    const auto byte = static_cast<std::uint8_t>(in[pos++]);
    if (byte > static_cast<std::uint8_t>(rdf::TermKind::kBlank)) return false;
    const auto kind = static_cast<rdf::TermKind>(byte);
    std::uint64_t lcp = 0;
    if (!get_varint(in, pos, lcp) || lcp > prev.size()) return false;
    std::string suffix, datatype, lang;
    if (!decode_string(in, pos, suffix) ||
        !decode_string(in, pos, datatype) || !decode_string(in, pos, lang)) {
      return false;
    }
    std::string lexical = prev.substr(0, lcp) + suffix;
    prev = lexical;
    terms.push_back(
        make_term(kind, std::move(lexical), std::move(datatype),
                  std::move(lang)));
  }
  return true;
}

/// One row's bound dictionary indexes in var order: first absolute, the
/// rest zigzag deltas. Depends only on the row's own content.
void encode_row_ids(std::string& out, const std::vector<std::uint32_t>& ids) {
  bool first = true;
  std::uint32_t prev = 0;
  for (std::uint32_t id : ids) {
    if (first) {
      put_varint(out, id);
      first = false;
    } else {
      put_varint(out, zigzag(static_cast<std::int64_t>(id) -
                             static_cast<std::int64_t>(prev)));
    }
    prev = id;
  }
}

}  // namespace

std::string encode(const sparql::SolutionSet& s) {
  // Canonical schema: the sorted union of variables bound in any row.
  std::vector<std::string> vars = sparql::variables_of(s);
  Dictionary dict;
  for (const sparql::Binding& b : s.rows()) {
    for (const auto& [name, term] : b.slots()) dict.collect(term);
  }
  dict.seal();

  std::string out;
  put_varint(out, vars.size());
  for (const std::string& v : vars) encode_string(out, v);
  encode_dictionary(out, dict);

  put_varint(out, s.size());
  const std::size_t bitmap_bytes = (vars.size() + 7) / 8;
  std::vector<std::uint32_t> ids;
  for (const sparql::Binding& b : s.rows()) {
    std::string bitmap(bitmap_bytes, '\0');
    ids.clear();
    for (std::size_t i = 0; i < vars.size(); ++i) {
      if (const rdf::Term* t = b.get(vars[i])) {
        bitmap[i / 8] = static_cast<char>(bitmap[i / 8] | (1 << (i % 8)));
        ids.push_back(dict.id_of(*t));
      }
    }
    out.append(bitmap);
    encode_row_ids(out, ids);
  }
  return out;
}

bool decode(std::string_view in, sparql::SolutionSet& out) {
  std::size_t pos = 0;
  std::uint64_t nvars = 0;
  if (!get_count(in, pos, nvars)) return false;
  std::vector<std::string> vars(nvars);
  for (std::string& v : vars) {
    if (!decode_string(in, pos, v)) return false;
  }
  std::vector<rdf::Term> terms;
  if (!decode_dictionary(in, pos, terms)) return false;

  std::uint64_t nrows = 0;
  if (!get_varint(in, pos, nrows)) return false;
  const std::size_t bitmap_bytes = (nvars + 7) / 8;
  // A row occupies at least its bitmap; without variables it occupies no
  // byte at all, so only the cap bounds the count.
  if (bitmap_bytes > 0 ? nrows > (in.size() - pos) / bitmap_bytes
                       : nrows > kMaxEmptyRows) {
    return false;
  }
  sparql::SolutionSet result;
  for (std::uint64_t r = 0; r < nrows; ++r) {
    if (pos + bitmap_bytes > in.size()) return false;
    std::string_view bitmap = in.substr(pos, bitmap_bytes);
    pos += bitmap_bytes;
    sparql::Binding b;
    std::uint64_t id = 0;
    bool first = true;
    for (std::uint64_t i = 0; i < nvars; ++i) {
      if ((static_cast<std::uint8_t>(bitmap[i / 8]) & (1 << (i % 8))) == 0) {
        continue;
      }
      std::uint64_t raw = 0;
      if (!get_varint(in, pos, raw) ||
          !next_index(raw, first, id, terms.size(), id)) {
        return false;
      }
      first = false;
      b.set(vars[i], terms[static_cast<std::size_t>(id)]);
    }
    result.add(std::move(b));
  }
  out = std::move(result);
  return true;
}

std::string encode(const std::vector<rdf::Triple>& triples) {
  Dictionary dict;
  for (const rdf::Triple& t : triples) {
    dict.collect(t.s);
    dict.collect(t.p);
    dict.collect(t.o);
  }
  dict.seal();

  std::string out;
  encode_dictionary(out, dict);
  put_varint(out, triples.size());
  std::vector<std::uint32_t> ids(3);
  for (const rdf::Triple& t : triples) {
    ids[0] = dict.id_of(t.s);
    ids[1] = dict.id_of(t.p);
    ids[2] = dict.id_of(t.o);
    encode_row_ids(out, ids);
  }
  return out;
}

bool decode(std::string_view in, std::vector<rdf::Triple>& out) {
  std::size_t pos = 0;
  std::vector<rdf::Term> terms;
  if (!decode_dictionary(in, pos, terms)) return false;
  std::uint64_t ntriples = 0;
  if (!get_count(in, pos, ntriples)) return false;
  std::vector<rdf::Triple> result;
  result.reserve(ntriples);
  for (std::uint64_t r = 0; r < ntriples; ++r) {
    rdf::Term* slots[3];
    rdf::Triple t;
    slots[0] = &t.s;
    slots[1] = &t.p;
    slots[2] = &t.o;
    std::uint64_t id = 0;
    for (int i = 0; i < 3; ++i) {
      std::uint64_t raw = 0;
      if (!get_varint(in, pos, raw) ||
          !next_index(raw, i == 0, id, terms.size(), id)) {
        return false;
      }
      *slots[i] = terms[static_cast<std::size_t>(id)];
    }
    result.push_back(std::move(t));
  }
  out = std::move(result);
  return true;
}

namespace {

/// The row section of a payload (every section mirrors encode()): the row
/// count, then per row its bitmap and its bound slots' dictionary ranks.
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

}  // namespace

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

std::size_t encoded_size(const sparql::SolutionSet& s) {
  rdf::TermDictionary dict;
  return encoded_size(sparql::id_table(sparql::intern_rows(s, dict)));
}

std::size_t encoded_size(const std::vector<rdf::Triple>& t) {
  return encode(t).size();
}

std::size_t charged_bytes(const sparql::SolutionSet& s) {
  return encoded_size(s);
}

std::size_t charged_bytes(const sparql::MergeAccumulator& acc) {
  return acc.head_bytes() + row_section_size(acc.table());
}

std::size_t charged_bytes(const sparql::IdRows& rows) {
  return encoded_size(sparql::id_table(rows));
}

}  // namespace ahsw::net::wire
