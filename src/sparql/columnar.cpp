#include "sparql/columnar.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <numeric>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.hpp"

namespace ahsw::sparql {

namespace {

using rdf::TermId;
inline constexpr TermId kUnbound = rdf::kInvalidTermId;
inline constexpr std::size_t kNoCol = static_cast<std::size_t>(-1);

/// Columnar image of a SolutionSet: the sorted variable schema and a dense
/// row-major TermId matrix; kUnbound marks an absent binding.
struct Table {
  std::vector<std::string> vars;
  std::size_t width = 0;
  std::size_t rows = 0;
  std::vector<TermId> cells;

  [[nodiscard]] TermId at(std::size_t r, std::size_t c) const noexcept {
    return cells[r * width + c];
  }
  [[nodiscard]] const TermId* row(std::size_t r) const noexcept {
    return cells.data() + r * width;
  }
};

/// Intern every distinct term of `sets` in Term `operator<=>` order, so that
/// id comparison agrees with term comparison (vec_deduplicated relies on
/// this; everything else only needs id equality).
rdf::TermDictionary build_dictionary(
    std::initializer_list<const SolutionSet*> sets) {
  std::set<rdf::Term> terms;
  for (const SolutionSet* s : sets) {
    for (const Binding& r : s->rows()) {
      for (const auto& [name, term] : r.slots()) terms.insert(term);
    }
  }
  rdf::TermDictionary dict;
  for (const rdf::Term& t : terms) dict.intern(t);
  return dict;
}

/// Row-major id cells of `s` over its sorted schema `vars`; `id_of` maps
/// each bound term to its id.
template <typename IdOf>
std::vector<TermId> id_cells(const SolutionSet& s,
                             const std::vector<std::string>& vars,
                             IdOf&& id_of) {
  const std::size_t width = vars.size();
  std::vector<TermId> cells(s.size() * width, kUnbound);
  for (std::size_t r = 0; r < s.size(); ++r) {
    // Binding slots and vars are both sorted: a merge walk places cells.
    std::size_t c = 0;
    for (const auto& [name, term] : s.rows()[r].slots()) {
      while (vars[c] != name) ++c;
      cells[r * width + c] = id_of(term);
      ++c;
    }
  }
  return cells;
}

Table build_table(const SolutionSet& s, const rdf::TermDictionary& dict) {
  Table t;
  t.vars = variables_of(s);
  t.width = t.vars.size();
  t.rows = s.size();
  t.cells =
      id_cells(s, t.vars, [&](const rdf::Term& term) { return *dict.find(term); });
  return t;
}

/// Column correspondence between two operand schemas and their merged
/// (sorted union) output schema.
struct MergeSchema {
  std::vector<std::string> vars;     // sorted union of both schemas
  std::vector<std::size_t> from_a;   // a column -> output column
  std::vector<std::size_t> from_b;   // b column -> output column
  struct SharedCol {
    std::size_t a;
    std::size_t b;
  };
  /// Columns present in both schemas: a schema lists the variables bound
  /// in at least one row, so these are the operands' shared variables.
  std::vector<SharedCol> shared;
};

MergeSchema merge_schema(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  MergeSchema m;
  m.from_a.resize(a.size());
  m.from_b.resize(b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    std::size_t out = m.vars.size();
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      m.vars.push_back(a[i]);
      m.from_a[i++] = out;
    } else if (i == a.size() || b[j] < a[i]) {
      m.vars.push_back(b[j]);
      m.from_b[j++] = out;
    } else {
      m.vars.push_back(a[i]);
      m.shared.push_back({i, j});
      m.from_a[i++] = out;
      m.from_b[j++] = out;
    }
  }
  return m;
}

/// Compatible per Perez et al., in id space: every variable bound in both
/// rows carries the same id. Only shared-schema columns can disagree.
bool compatible(const TermId* x, const TermId* y,
                const std::vector<MergeSchema::SharedCol>& shared) {
  for (const auto& sc : shared) {
    if (x[sc.a] != kUnbound && y[sc.b] != kUnbound && x[sc.a] != y[sc.b]) {
      return false;
    }
  }
  return true;
}

bool compatible(const Table& ta, std::size_t ra, const Table& tb,
                std::size_t rb, const std::vector<MergeSchema::SharedCol>& shared) {
  return compatible(ta.row(ra), tb.row(rb), shared);
}

/// The row `cells` over the sorted schema `vars` as a Binding; `term_of`
/// resolves an id.
template <typename TermOf>
Binding materialize_with(const std::vector<std::string>& vars,
                         const TermId* cells, const TermOf& term_of) {
  Binding out;
  // vars is sorted, so each set() appends at the back.
  for (std::size_t c = 0; c < vars.size(); ++c) {
    if (cells[c] != kUnbound) out.set(vars[c], term_of(cells[c]));
  }
  return out;
}

Binding materialize(const std::vector<std::string>& vars, const TermId* cells,
                    const rdf::TermDictionary& dict) {
  auto term_of = [&](TermId id) -> const rdf::Term& { return dict.term(id); };
  return materialize_with(vars, cells, term_of);
}

/// Merge row `x` (width `wx`) with row `y` (width `wy`) into `out` (output
/// schema order, x's value winning where both bind — they are equal when
/// the pair is compatible, matching Binding::merged).
void merge_cells(const TermId* x, std::size_t wx, const TermId* y,
                 std::size_t wy, const MergeSchema& m, TermId* out) {
  std::fill(out, out + m.vars.size(), kUnbound);
  for (std::size_t c = 0; c < wx; ++c) out[m.from_a[c]] = x[c];
  for (std::size_t c = 0; c < wy; ++c) {
    if (out[m.from_b[c]] == kUnbound) out[m.from_b[c]] = y[c];
  }
}

void merge_cells(const Table& ta, std::size_t ra, const Table& tb,
                 std::size_t rb, const MergeSchema& m,
                 std::vector<TermId>& buf) {
  buf.resize(m.vars.size());
  merge_cells(ta.row(ra), ta.width, tb.row(rb), tb.width, m, buf.data());
}

/// Binding's lexicographic slot order over id rows of one sorted schema:
/// pairs compare name first (column index order is name order) then term
/// (`key` maps an id to its Term-order position); a row that is a strict
/// prefix sorts first.
template <typename Key>
bool canonical_less(const TermId* x, const TermId* y, std::size_t width,
                    const Key& key) {
  std::size_t ci = 0;
  std::size_t cj = 0;
  for (;;) {
    while (ci < width && x[ci] == kUnbound) ++ci;
    while (cj < width && y[cj] == kUnbound) ++cj;
    if (ci == width || cj == width) break;
    if (ci != cj) return ci < cj;
    if (x[ci] != y[cj]) return key(x[ci]) < key(y[cj]);
    ++ci;
    ++cj;
  }
  return ci == width && cj < width;
}

/// Packed id-tuple used as a hash key (point lookups only — never iterated,
/// so hash order cannot leak into output; rule D2).
void append_id(std::string& key, TermId id) {
  key.append(reinterpret_cast<const char*>(&id), sizeof id);
}

/// The join core shared by vec_join and vec_left_join. Emission order is
/// the row-order contract of columnar.hpp: per a-row in order, full-key
/// group matches in b insertion order, then partial rows, with a full scan
/// for a-rows missing part of the shared key. When `matched` is non-null it
/// records, per a-row, whether any pair was emitted (the LeftJoin minus
/// part needs it).
void join_core(const SolutionSet& a, const SolutionSet& b, SolutionSet& out,
               std::vector<char>* matched) {
  rdf::TermDictionary dict = build_dictionary({&a, &b});
  Table ta = build_table(a, dict);
  Table tb = build_table(b, dict);
  MergeSchema m = merge_schema(ta.vars, tb.vars);
  if (matched != nullptr) matched->assign(ta.rows, 0);

  std::vector<TermId> buf;
  auto emit = [&](std::size_t ra, std::size_t rb) {
    merge_cells(ta, ra, tb, rb, m, buf);
    out.add(materialize(m.vars, buf.data(), dict));
    if (matched != nullptr) (*matched)[ra] = 1;
  };

  if (m.shared.empty()) {
    // Cartesian product: no shared vars, every pair compatible.
    for (std::size_t ra = 0; ra < ta.rows; ++ra) {
      for (std::size_t rb = 0; rb < tb.rows; ++rb) emit(ra, rb);
    }
    return;
  }

  // Group b-rows binding every shared var by their shared id tuple; rows
  // missing one (possible after OPTIONAL) go to the pairwise-checked pool.
  std::unordered_map<std::string, std::vector<std::size_t>> groups;
  std::vector<std::size_t> partial;
  std::string key;
  auto shared_key = [&](const Table& t, std::size_t r, bool a_side) {
    key.clear();
    for (const auto& sc : m.shared) {
      TermId id = t.at(r, a_side ? sc.a : sc.b);
      if (id == kUnbound) return false;
      append_id(key, id);
    }
    return true;
  };
  for (std::size_t rb = 0; rb < tb.rows; ++rb) {
    if (shared_key(tb, rb, false)) {
      groups[key].push_back(rb);
    } else {
      partial.push_back(rb);
    }
  }

  for (std::size_t ra = 0; ra < ta.rows; ++ra) {
    if (shared_key(ta, ra, true)) {
      if (auto it = groups.find(key); it != groups.end()) {
        for (std::size_t rb : it->second) {
          if (compatible(ta, ra, tb, rb, m.shared)) emit(ra, rb);
        }
      }
      for (std::size_t rb : partial) {
        if (compatible(ta, ra, tb, rb, m.shared)) emit(ra, rb);
      }
    } else {
      for (std::size_t rb = 0; rb < tb.rows; ++rb) {
        if (compatible(ta, ra, tb, rb, m.shared)) emit(ra, rb);
      }
    }
  }
}

/// Shared columns of two tables without the merged schema (Minus needs no
/// output mapping).
std::vector<MergeSchema::SharedCol> shared_columns(const Table& ta,
                                                   const Table& tb) {
  std::vector<MergeSchema::SharedCol> shared;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ta.width && j < tb.width) {
    if (ta.vars[i] < tb.vars[j]) {
      ++i;
    } else if (tb.vars[j] < ta.vars[i]) {
      ++j;
    } else {
      shared.push_back({i, j});
      ++i;
      ++j;
    }
  }
  return shared;
}

}  // namespace

SolutionSet vec_join(const SolutionSet& a, const SolutionSet& b) {
  SolutionSet out;
  join_core(a, b, out, nullptr);
  return out;
}

SolutionSet vec_minus(const SolutionSet& a, const SolutionSet& b) {
  rdf::TermDictionary dict = build_dictionary({&a, &b});
  Table ta = build_table(a, dict);
  Table tb = build_table(b, dict);
  std::vector<MergeSchema::SharedCol> shared = shared_columns(ta, tb);
  SolutionSet out;
  for (std::size_t ra = 0; ra < ta.rows; ++ra) {
    bool any = false;
    for (std::size_t rb = 0; rb < tb.rows && !any; ++rb) {
      any = compatible(ta, ra, tb, rb, shared);
    }
    if (!any) out.add(a.rows()[ra]);
  }
  return out;
}

SolutionSet vec_left_join(const SolutionSet& a, const SolutionSet& b) {
  SolutionSet out;
  std::vector<char> matched;
  join_core(a, b, out, &matched);
  // (O1 - O2): an a-row that emitted no pair has no compatible partner
  // (rows outside its key group differ on a both-bound shared var; partial
  // and full-scan paths were checked pairwise).
  for (std::size_t ra = 0; ra < matched.size(); ++ra) {
    if (matched[ra] == 0) out.add(a.rows()[ra]);
  }
  return out;
}

SolutionSet vec_left_join_conditioned(const SolutionSet& a,
                                      const SolutionSet& b,
                                      const ExprPtr& cond) {
  if (cond == nullptr) return vec_left_join(a, b);
  rdf::TermDictionary dict = build_dictionary({&a, &b});
  Table ta = build_table(a, dict);
  Table tb = build_table(b, dict);
  MergeSchema m = merge_schema(ta.vars, tb.vars);

  // Columns of the merged schema the condition reads (kNoCol: the variable
  // never occurs in either operand, so its id is constantly unbound).
  std::vector<std::size_t> cond_cols;
  for (const std::string& v : variables_of(*cond)) {
    auto it = std::lower_bound(m.vars.begin(), m.vars.end(), v);
    cond_cols.push_back(it != m.vars.end() && *it == v
                            ? static_cast<std::size_t>(it - m.vars.begin())
                            : kNoCol);
  }

  // satisfies() depends only on the terms of the condition's variables, so
  // its verdict is a function of their id tuple in the merged row.
  std::unordered_map<std::string, bool> memo;
  SolutionSet out;
  std::vector<TermId> buf;
  std::string key;
  for (std::size_t ra = 0; ra < ta.rows; ++ra) {
    bool extended = false;
    for (std::size_t rb = 0; rb < tb.rows; ++rb) {
      if (!compatible(ta, ra, tb, rb, m.shared)) continue;
      merge_cells(ta, ra, tb, rb, m, buf);
      key.clear();
      for (std::size_t c : cond_cols) {
        append_id(key, c == kNoCol ? kUnbound : buf[c]);
      }
      Binding merged;
      bool have_merged = false;
      auto it = memo.find(key);
      bool ok;
      if (it == memo.end()) {
        merged = materialize(m.vars, buf.data(), dict);
        have_merged = true;
        ok = satisfies(*cond, merged);
        memo.emplace(key, ok);
      } else {
        ok = it->second;
      }
      if (ok) {
        if (!have_merged) merged = materialize(m.vars, buf.data(), dict);
        out.add(std::move(merged));
        extended = true;
      }
    }
    if (!extended) out.add(a.rows()[ra]);
  }
  return out;
}

SolutionSet vec_filter_set(const SolutionSet& in, const Expr& e) {
  rdf::TermDictionary dict = build_dictionary({&in});
  Table t = build_table(in, dict);
  std::vector<std::size_t> cond_cols;
  for (const std::string& v : variables_of(e)) {
    auto it = std::lower_bound(t.vars.begin(), t.vars.end(), v);
    cond_cols.push_back(it != t.vars.end() && *it == v
                            ? static_cast<std::size_t>(it - t.vars.begin())
                            : kNoCol);
  }
  std::unordered_map<std::string, bool> memo;
  SolutionSet out;
  std::string key;
  for (std::size_t r = 0; r < t.rows; ++r) {
    key.clear();
    for (std::size_t c : cond_cols) {
      append_id(key, c == kNoCol ? kUnbound : t.at(r, c));
    }
    auto it = memo.find(key);
    bool ok;
    if (it == memo.end()) {
      ok = satisfies(e, in.rows()[r]);
      memo.emplace(key, ok);
    } else {
      ok = it->second;
    }
    if (ok) out.add(in.rows()[r]);
  }
  return out;
}

SolutionSet vec_deduplicated(const SolutionSet& in) {
  rdf::TermDictionary dict = build_dictionary({&in});
  Table t = build_table(in, dict);
  std::vector<std::size_t> order(t.rows);
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Exactly Binding's order: id order == term order by dictionary
  // construction.
  auto less = [&](std::size_t i, std::size_t j) {
    return canonical_less(t.row(i), t.row(j), t.width,
                          [](TermId id) { return id; });
  };
  std::stable_sort(order.begin(), order.end(), less);
  auto equal_rows = [&](std::size_t i, std::size_t j) {
    for (std::size_t c = 0; c < t.width; ++c) {
      if (t.at(i, c) != t.at(j, c)) return false;
    }
    return true;
  };
  SolutionSet out;
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k > 0 && equal_rows(order[k - 1], order[k])) continue;
    out.add(in.rows()[order[k]]);
  }
  return out;
}

namespace {

/// Rank the ids of `ids` by term: sort them into Term order.
void sort_by_term(std::vector<TermId>& ids,
                  const std::vector<const rdf::Term*>& terms) {
  std::sort(ids.begin(), ids.end(),
            [&](TermId x, TermId y) { return *terms[x] < *terms[y]; });
}

void set_ranks(IdTable& t) {
  t.rank.resize(t.terms.size());
  for (std::size_t k = 0; k < t.by_rank.size(); ++k) {
    t.rank[t.by_rank[k]] = static_cast<std::uint32_t>(k);
  }
}

/// Rank every id of a table whose rows use all of its terms.
void rank_all(IdTable& t) {
  t.by_rank.resize(t.terms.size());
  std::iota(t.by_rank.begin(), t.by_rank.end(), TermId{0});
  sort_by_term(t.by_rank, t.terms);
  set_ranks(t);
}

/// Sorted union of two sorted variable lists.
std::vector<std::string> var_union(const std::vector<std::string>& a,
                                   const std::vector<std::string>& b) {
  std::vector<std::string> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// Hash and equality of terms held elsewhere, by value.
struct TermPtrHash {
  std::size_t operator()(const rdf::Term* t) const noexcept {
    return rdf::TermHash{}(*t);
  }
};
struct TermPtrEq {
  bool operator()(const rdf::Term* a, const rdf::Term* b) const noexcept {
    return *a == *b;
  }
};

}  // namespace

std::size_t ScanRows::byte_size() const {
  std::size_t n = SolutionSet{}.byte_size() + rows * Binding{}.byte_size();
  const std::size_t width = vars.size();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    n += vars[i % width].size() + 1 + dict->term(cells[i]).byte_size();
  }
  return n;
}

SolutionSet ScanRows::materialize() const {
  const std::size_t width = vars.size();
  SolutionSet out;
  for (std::size_t r = 0; r < rows; ++r) {
    out.add(sparql::materialize(vars, cells.data() + r * width, *dict));
  }
  return out;
}

IdTable id_table(const SolutionSet& s) {
  IdTable t;
  t.vars = variables_of(s);
  t.rows = s.size();
  // iteration-order: never iterated — point lookups only.
  std::unordered_map<const rdf::Term*, TermId, TermPtrHash, TermPtrEq>
      local_of;
  t.cells = id_cells(s, t.vars, [&](const rdf::Term& term) {
    auto [it, inserted] =
        local_of.try_emplace(&term, static_cast<TermId>(t.terms.size()));
    if (inserted) t.terms.push_back(&term);
    return it->second;
  });
  rank_all(t);
  return t;
}

IdTable id_table(const ScanRows& rows) {
  IdTable t;
  t.vars = rows.vars;
  t.rows = rows.rows;
  t.cells.reserve(rows.cells.size());
  LocalIds local;
  for (TermId id : rows.cells) {
    TermId l = local.find(id);
    if (l == kUnbound) {
      l = static_cast<TermId>(t.terms.size());
      local.insert(id, l);
      t.terms.push_back(&rows.dict->term(id));
    }
    t.cells.push_back(l);
  }
  rank_all(t);
  return t;
}

std::size_t LocalIds::slot(TermId id) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  const std::uint64_t h = std::uint64_t{id} * 0x9e3779b97f4a7c15ULL;
  std::size_t i = static_cast<std::size_t>(h >> 32) & mask;
  while (slots_[i].first != kUnbound && slots_[i].first != id) {
    i = (i + 1) & mask;
  }
  return i;
}

TermId LocalIds::find(TermId id) const noexcept {
  if (slots_.empty()) return kUnbound;
  const auto& [key, local] = slots_[slot(id)];
  return key == id ? local : kUnbound;
}

void LocalIds::insert(TermId id, TermId local) {
  if ((used_ + 1) * 2 > slots_.size()) {
    std::vector<std::pair<TermId, TermId>> old = std::move(slots_);
    slots_.assign(std::max<std::size_t>(16, old.size() * 2),
                  {kUnbound, kUnbound});
    for (const auto& entry : old) {
      if (entry.first != kUnbound) slots_[slot(entry.first)] = entry;
    }
  }
  slots_[slot(id)] = {id, local};
  ++used_;
}

TermId MergeAccumulator::local_id(const rdf::TermDictionary* dict,
                                  TermId id) {
  if (dict != dict_) return local_id(dict->term(id));
  TermId l = from_dict_.find(id);
  if (l == kUnbound) {
    l = static_cast<TermId>(table_.terms.size());
    from_dict_.insert(id, l);
    table_.terms.push_back(&dict->term(id));
  }
  return l;
}

TermId MergeAccumulator::local_id(const rdf::Term& t) {
  if (dict_ != nullptr) {
    if (std::optional<TermId> id = dict_->find(t)) return local_id(dict_, *id);
  }
  if (auto it = own_ids_.find(t); it != own_ids_.end()) return it->second;
  const auto l = static_cast<TermId>(table_.terms.size());
  own_terms_.push_back(t);
  table_.terms.push_back(&own_terms_.back());
  own_ids_.emplace(t, l);
  return l;
}

void MergeAccumulator::set_carry(const SolutionSet& carry) {
  Carry c;
  c.vars = variables_of(carry);
  c.rows = carry.size();
  c.cells = id_cells(carry, c.vars,
                     [&](const rdf::Term& t) { return local_id(t); });
  carry_ = std::move(c);
}

void MergeAccumulator::add(const ScanRows& local) {
  if (local.rows == 0) return;
  std::vector<TermId> cells(local.cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i] = local_id(local.dict, local.cells[i]);
  }
  merge(local.vars, cells, local.rows);
}

void MergeAccumulator::add(const SolutionSet& local) {
  if (local.empty()) return;
  const std::vector<std::string> vars = variables_of(local);
  const std::vector<TermId> cells = id_cells(
      local, vars, [&](const rdf::Term& t) { return local_id(t); });
  merge(vars, cells, local.size());
}

void MergeAccumulator::merge(const std::vector<std::string>& vars,
                             const std::vector<TermId>& cells,
                             std::size_t rows) {
  if (!carry_.has_value()) {
    absorb(vars, cells, rows);
    return;
  }
  // join(carry, local) in id space. Row order inside one contribution is
  // never observable (absorb keeps a set, take() sorts), so local rows
  // probe the carry grouped once on the shared columns.
  Carry& c = *carry_;
  const MergeSchema m = merge_schema(c.vars, vars);
  const std::size_t wc = c.vars.size();
  const std::size_t wl = vars.size();
  const std::size_t wm = m.vars.size();
  std::vector<std::size_t> key_cols;
  for (const auto& sc : m.shared) key_cols.push_back(sc.a);
  std::string key;
  auto pack = [&](const TermId* row, bool carry_side) {
    key.clear();
    for (const auto& sc : m.shared) {
      const TermId id = row[carry_side ? sc.a : sc.b];
      if (id == kUnbound) return false;
      append_id(key, id);
    }
    return true;
  };
  auto carry_row = [&](std::size_t r) { return c.cells.data() + r * wc; };
  if (!key_cols.empty() && c.key_cols != key_cols) {
    // Carry rows binding every shared column group by their shared ids;
    // rows missing one (possible after OPTIONAL) are checked pairwise.
    c.groups.clear();
    c.partial.clear();
    c.key_cols = key_cols;
    for (std::size_t r = 0; r < c.rows; ++r) {
      if (pack(carry_row(r), true)) {
        c.groups[key].push_back(r);
      } else {
        c.partial.push_back(r);
      }
    }
  }

  std::vector<TermId> out;
  std::size_t out_rows = 0;
  auto emit = [&](std::size_t rc, const TermId* lrow) {
    out.resize(out.size() + wm);
    merge_cells(carry_row(rc), wc, lrow, wl, m, out.data() + out_rows * wm);
    ++out_rows;
  };
  for (std::size_t rl = 0; rl < rows; ++rl) {
    const TermId* lrow = cells.data() + rl * wl;
    if (m.shared.empty()) {
      for (std::size_t rc = 0; rc < c.rows; ++rc) emit(rc, lrow);
    } else if (pack(lrow, false)) {
      // A full key equal on every shared column is compatible outright.
      if (auto it = c.groups.find(key); it != c.groups.end()) {
        for (std::size_t rc : it->second) emit(rc, lrow);
      }
      for (std::size_t rc : c.partial) {
        if (compatible(carry_row(rc), lrow, m.shared)) emit(rc, lrow);
      }
    } else {
      for (std::size_t rc = 0; rc < c.rows; ++rc) {
        if (compatible(carry_row(rc), lrow, m.shared)) emit(rc, lrow);
      }
    }
  }
  absorb(m.vars, out, out_rows);
}

void MergeAccumulator::absorb(const std::vector<std::string>& vars,
                              const std::vector<TermId>& cells,
                              std::size_t rows) {
  if (rows == 0) return;
  const std::size_t w = vars.size();
  // The schema grows only by columns some candidate row binds, so it stays
  // "the variables bound in at least one held row".
  std::vector<std::string> bound;
  for (std::size_t c = 0; c < w; ++c) {
    for (std::size_t r = 0; r < rows; ++r) {
      if (cells[r * w + c] != kUnbound) {
        bound.push_back(vars[c]);
        break;
      }
    }
  }
  if (!std::includes(table_.vars.begin(), table_.vars.end(), bound.begin(),
                     bound.end())) {
    widen(var_union(table_.vars, bound));
  }
  const std::size_t width = table_.vars.size();
  std::vector<std::size_t> to(w, kNoCol);
  for (std::size_t c = 0; c < w; ++c) {
    auto it = std::lower_bound(table_.vars.begin(), table_.vars.end(), vars[c]);
    if (it != table_.vars.end() && *it == vars[c]) {
      to[c] = static_cast<std::size_t>(it - table_.vars.begin());
    }
  }

  live_.resize(table_.terms.size(), 0);
  std::vector<TermId> fresh;
  const std::size_t row_framing = Binding{}.byte_size();
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t base = table_.cells.size();
    table_.cells.resize(base + width, kUnbound);
    for (std::size_t c = 0; c < w; ++c) {
      // A column outside the schema is unbound in every candidate row.
      if (to[c] != kNoCol) table_.cells[base + to[c]] = cells[r * w + c];
    }
    if (!insert_back()) continue;
    raw_ += row_framing;
    for (std::size_t c = 0; c < width; ++c) {
      const TermId id = table_.cells[base + c];
      if (id == kUnbound) continue;
      raw_ += table_.vars[c].size() + 1 + table_.terms[id]->byte_size();
      if (live_[id] == 0) {
        live_[id] = 1;
        fresh.push_back(id);
      }
    }
  }
  if (fresh.empty()) return;
  sort_by_term(fresh, table_.terms);
  const auto mid = static_cast<std::ptrdiff_t>(table_.by_rank.size());
  table_.by_rank.insert(table_.by_rank.end(), fresh.begin(), fresh.end());
  std::inplace_merge(table_.by_rank.begin(), table_.by_rank.begin() + mid,
                     table_.by_rank.end(), [&](TermId x, TermId y) {
                       return *table_.terms[x] < *table_.terms[y];
                     });
  set_ranks(table_);
}

void MergeAccumulator::widen(const std::vector<std::string>& vars) {
  const std::size_t from = table_.vars.size();
  const std::size_t width = vars.size();
  std::vector<std::size_t> to(from);
  for (std::size_t c = 0, k = 0; c < from; ++c) {
    while (vars[k] != table_.vars[c]) ++k;
    to[c] = k;
  }
  std::vector<TermId> cells(table_.rows * width, kUnbound);
  for (std::size_t r = 0; r < table_.rows; ++r) {
    for (std::size_t c = 0; c < from; ++c) {
      cells[r * width + to[c]] = table_.cells[r * from + c];
    }
  }
  table_.vars = vars;
  table_.cells = std::move(cells);
  rehash(slots_.size());
}

std::uint64_t MergeAccumulator::row_hash(std::size_t row) const noexcept {
  const std::size_t width = table_.vars.size();
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t c = 0; c < width; ++c) {
    h = (h ^ table_.cells[row * width + c]) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

void MergeAccumulator::rehash(std::size_t capacity) {
  slots_.assign(capacity, 0);
  if (capacity == 0) return;
  const std::size_t mask = capacity - 1;
  for (std::size_t r = 0; r < table_.rows; ++r) {
    std::size_t i = static_cast<std::size_t>(row_hash(r)) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<std::uint32_t>(r + 1);
  }
}

bool MergeAccumulator::insert_back() {
  const std::size_t r = table_.rows;
  const std::size_t width = table_.vars.size();
  if ((r + 1) * 2 > slots_.size()) {
    rehash(std::max<std::size_t>(16, slots_.size() * 2));
  }
  const std::size_t mask = slots_.size() - 1;
  const TermId* row = table_.cells.data() + r * width;
  for (std::size_t i = static_cast<std::size_t>(row_hash(r)) & mask;;
       i = (i + 1) & mask) {
    if (slots_[i] == 0) {
      slots_[i] = static_cast<std::uint32_t>(r + 1);
      ++table_.rows;
      return true;
    }
    const TermId* held = table_.cells.data() + (slots_[i] - 1) * width;
    if (std::equal(row, row + width, held)) {
      table_.cells.resize(r * width);
      return false;
    }
  }
}

SolutionSet MergeAccumulator::take() {
  const IdTable& t = table_;
  const std::size_t width = t.vars.size();
  std::vector<std::size_t> order(t.rows);
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Rows are distinct, so the canonical order is strict.
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return canonical_less(t.cells.data() + i * width,
                          t.cells.data() + j * width, width,
                          [&](TermId id) { return t.rank[id]; });
  });
  auto term_of = [&](TermId id) -> const rdf::Term& { return *t.terms[id]; };
  SolutionSet out;
  for (std::size_t r : order) {
    out.add(materialize_with(t.vars, t.cells.data() + r * width, term_of));
  }
  *this = MergeAccumulator{dict_};
  return out;
}

}  // namespace ahsw::sparql
