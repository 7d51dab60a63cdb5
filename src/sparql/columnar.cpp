#include "sparql/columnar.hpp"

#include <algorithm>
#include <cstring>
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

Table build_table(const SolutionSet& s, const rdf::TermDictionary& dict) {
  Table t;
  t.vars = variables_of(s);
  t.width = t.vars.size();
  t.rows = s.size();
  t.cells.assign(t.rows * t.width, kUnbound);
  for (std::size_t r = 0; r < t.rows; ++r) {
    // Binding slots and t.vars are both sorted: a merge walk places cells.
    std::size_t c = 0;
    for (const auto& [name, term] : s.rows()[r].slots()) {
      while (t.vars[c] != name) ++c;
      t.cells[r * t.width + c] = *dict.find(term);
      ++c;
    }
  }
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

MergeSchema merge_schema(const Table& ta, const Table& tb) {
  MergeSchema m;
  m.from_a.resize(ta.width);
  m.from_b.resize(tb.width);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ta.width || j < tb.width) {
    std::size_t out = m.vars.size();
    if (j == tb.width || (i < ta.width && ta.vars[i] < tb.vars[j])) {
      m.vars.push_back(ta.vars[i]);
      m.from_a[i++] = out;
    } else if (i == ta.width || tb.vars[j] < ta.vars[i]) {
      m.vars.push_back(tb.vars[j]);
      m.from_b[j++] = out;
    } else {
      m.vars.push_back(ta.vars[i]);
      m.shared.push_back({i, j});
      m.from_a[i++] = out;
      m.from_b[j++] = out;
    }
  }
  return m;
}

/// Compatible per Perez et al., in id space: every variable bound in both
/// rows carries the same id. Only shared-schema columns can disagree.
bool compatible(const Table& ta, std::size_t ra, const Table& tb,
                std::size_t rb, const std::vector<MergeSchema::SharedCol>& shared) {
  for (const auto& sc : shared) {
    TermId x = ta.at(ra, sc.a);
    TermId y = tb.at(rb, sc.b);
    if (x != kUnbound && y != kUnbound && x != y) return false;
  }
  return true;
}

Binding materialize(const std::vector<std::string>& vars,
                    const std::vector<TermId>& cells,
                    const rdf::TermDictionary& dict) {
  Binding out;
  // vars is sorted, so each set() appends at the back.
  for (std::size_t c = 0; c < vars.size(); ++c) {
    if (cells[c] != kUnbound) out.set(vars[c], dict.term(cells[c]));
  }
  return out;
}

/// Merge row `ra` of `ta` with row `rb` of `tb` into `buf` (output schema
/// order, a's value winning where both bind — they are equal when the pair
/// is compatible, matching Binding::merged).
void merge_cells(const Table& ta, std::size_t ra, const Table& tb,
                 std::size_t rb, const MergeSchema& m,
                 std::vector<TermId>& buf) {
  buf.assign(m.vars.size(), kUnbound);
  for (std::size_t c = 0; c < ta.width; ++c) buf[m.from_a[c]] = ta.at(ra, c);
  for (std::size_t c = 0; c < tb.width; ++c) {
    if (buf[m.from_b[c]] == kUnbound) buf[m.from_b[c]] = tb.at(rb, c);
  }
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
  MergeSchema m = merge_schema(ta, tb);
  if (matched != nullptr) matched->assign(ta.rows, 0);

  std::vector<TermId> buf;
  auto emit = [&](std::size_t ra, std::size_t rb) {
    merge_cells(ta, ra, tb, rb, m, buf);
    out.add(materialize(m.vars, buf, dict));
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
  MergeSchema m = merge_schema(ta, tb);

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
        merged = materialize(m.vars, buf, dict);
        have_merged = true;
        ok = satisfies(*cond, merged);
        memo.emplace(key, ok);
      } else {
        ok = it->second;
      }
      if (ok) {
        if (!have_merged) merged = materialize(m.vars, buf, dict);
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
  // Exactly Binding's lexicographic slot order: pairs compare name first
  // (both schemas walk the same sorted var list, so column index order is
  // name order) then term (id order == term order by dictionary
  // construction); a row that is a strict prefix sorts first.
  auto less = [&](std::size_t i, std::size_t j) {
    std::size_t ci = 0;
    std::size_t cj = 0;
    for (;;) {
      while (ci < t.width && t.at(i, ci) == kUnbound) ++ci;
      while (cj < t.width && t.at(j, cj) == kUnbound) ++cj;
      if (ci == t.width || cj == t.width) break;
      if (ci != cj) return ci < cj;
      TermId x = t.at(i, ci);
      TermId y = t.at(j, cj);
      if (x != y) return x < y;
      ++ci;
      ++cj;
    }
    return ci == t.width && cj < t.width;
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

}  // namespace ahsw::sparql
