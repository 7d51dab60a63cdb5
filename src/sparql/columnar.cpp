#include "sparql/columnar.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "rdf/dictionary.hpp"

namespace ahsw::sparql {

namespace {

using rdf::TermId;
inline constexpr TermId kUnbound = rdf::kInvalidTermId;
inline constexpr std::size_t kNoCol = static_cast<std::size_t>(-1);

/// The dictionary both operands of a binary kernel resolve through (an
/// operand without bound cells may carry none).
const rdf::TermDictionary* common_dict(const IdRows& a, const IdRows& b) {
  assert(a.dict == nullptr || b.dict == nullptr || a.dict == b.dict);
  return a.dict != nullptr ? a.dict : b.dict;
}

/// Restore the schema invariant after a kernel that drops rows: remove the
/// columns no remaining row binds.
void trim(IdRows& t) {
  const std::size_t width = t.vars.size();
  if (t.rows == 0) {
    t.vars.clear();
    t.cells.clear();
    return;
  }
  std::vector<char> used(width, 0);
  std::size_t n_used = 0;
  for (std::size_t i = 0; i < t.cells.size() && n_used < width; ++i) {
    const std::size_t c = i % width;
    if (used[c] == 0 && t.cells[i] != kUnbound) {
      used[c] = 1;
      ++n_used;
    }
  }
  if (n_used == width) return;
  std::vector<std::string> vars;
  for (std::size_t c = 0; c < width; ++c) {
    if (used[c] != 0) vars.push_back(std::move(t.vars[c]));
  }
  std::size_t k = 0;
  for (std::size_t i = 0; i < t.cells.size(); ++i) {
    if (used[i % width] != 0) t.cells[k++] = t.cells[i];
  }
  t.cells.resize(k);
  t.vars = std::move(vars);
}

/// Column correspondence between two operand schemas and their merged
/// (sorted union) output schema.
struct MergeSchema {
  std::vector<std::string> vars;     // sorted union of both schemas
  std::vector<std::size_t> from_a;   // a column -> output column
  std::vector<std::size_t> from_b;   // b column -> output column
  /// Columns present in both schemas, paired in order (a schema lists the
  /// variables bound in at least one row, so these are the operands' shared
  /// variables).
  std::vector<std::size_t> shared_a;
  std::vector<std::size_t> shared_b;
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
      m.shared_a.push_back(i);
      m.shared_b.push_back(j);
      m.from_a[i++] = out;
      m.from_b[j++] = out;
    }
  }
  return m;
}

/// Compatible per Perez et al., in id space: every variable bound in both
/// rows carries the same id. Only shared-schema columns can disagree.
bool compatible(const TermId* x, const TermId* y, const MergeSchema& m) {
  for (std::size_t k = 0; k < m.shared_a.size(); ++k) {
    const TermId xa = x[m.shared_a[k]];
    const TermId yb = y[m.shared_b[k]];
    if (xa != kUnbound && yb != kUnbound && xa != yb) return false;
  }
  return true;
}

/// The row `cells` over the sorted schema `vars` as a Binding.
Binding materialize(const std::vector<std::string>& vars, const TermId* cells,
                    const rdf::TermDictionary* dict) {
  Binding out;
  out.reserve(static_cast<std::size_t>(
      std::count_if(cells, cells + vars.size(),
                    [](TermId id) { return id != kUnbound; })));
  // vars is sorted, so the slots append in order.
  for (std::size_t c = 0; c < vars.size(); ++c) {
    if (cells[c] != kUnbound) out.append(vars[c], dict->term(cells[c]));
  }
  return out;
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

/// Append row `ra` of `a` to `out`, whose schema includes a's (`to` maps
/// a's columns into it); out's other columns stay unbound.
void append_placed(IdRows& out, const IdRows& a, std::size_t ra,
                   const std::vector<std::size_t>& to) {
  const std::size_t base = out.cells.size();
  out.cells.resize(base + out.vars.size(), kUnbound);
  ++out.rows;
  for (std::size_t c = 0; c < a.vars.size(); ++c) {
    out.cells[base + to[c]] = a.row(ra)[c];
  }
}

/// Binding's lexicographic slot order over rows of one sorted schema whose
/// cells hold Term-order ranks: pairs compare name first (column index
/// order is name order) then term; a row that is a strict prefix sorts
/// first.
bool canonical_less(const TermId* x, const TermId* y, std::size_t width) {
  std::size_t ci = 0;
  std::size_t cj = 0;
  for (;;) {
    while (ci < width && x[ci] == kUnbound) ++ci;
    while (cj < width && y[cj] == kUnbound) ++cj;
    if (ci == width || cj == width) break;
    if (ci != cj) return ci < cj;
    if (x[ci] != y[cj]) return x[ci] < y[cj];
    ++ci;
    ++cj;
  }
  return ci == width && cj < width;
}

/// Columns of the sorted schema `vars` an expression reads (kNoCol: the
/// variable is bound in no row, so its id is constantly unbound).
std::vector<std::size_t> expr_columns(const Expr& e,
                                      const std::vector<std::string>& vars) {
  std::vector<std::size_t> cols;
  for (const std::string& v : variables_of(e)) {
    auto it = std::lower_bound(vars.begin(), vars.end(), v);
    cols.push_back(it != vars.end() && *it == v
                       ? static_cast<std::size_t>(it - vars.begin())
                       : kNoCol);
  }
  return cols;
}

/// Memoized FILTER verdict: satisfies() depends only on the terms of the
/// expression's variables, so its verdict is a function of their id tuple;
/// the row is materialized once per distinct tuple.
class ExprMemo {
 public:
  ExprMemo(const Expr& e, const std::vector<std::string>& vars)
      : e_(&e),
        vars_(&vars),
        cols_(expr_columns(e, vars)),
        key_(cols_.size()),
        memo_(cols_.size()) {}

  bool operator()(const TermId* row, const rdf::TermDictionary* dict) {
    for (std::size_t k = 0; k < cols_.size(); ++k) {
      key_[k] = cols_[k] == kNoCol ? kUnbound : row[cols_[k]];
    }
    const auto [tuple, fresh] = memo_.insert(key_.data());
    if (fresh) {
      verdicts_.push_back(satisfies(*e_, materialize(*vars_, row, dict)));
    }
    return verdicts_[tuple] != 0;
  }

 private:
  const Expr* e_;
  const std::vector<std::string>* vars_;
  std::vector<std::size_t> cols_;
  std::vector<TermId> key_;
  IdTupleIndex memo_;  // id tuple -> its index in verdicts_
  std::vector<char> verdicts_;
};

/// The join core shared by join and left_join. Emission order is the
/// row-order contract of columnar.hpp: per a-row in order, the b-rows the
/// KeyedProbe yields. When `matched` is non-null it records, per a-row,
/// whether any pair was emitted (the LeftJoin minus part needs it). `out`
/// gets the merged schema; the caller trims it.
void join_core(const IdRows& a, const IdRows& b, const MergeSchema& m,
               IdRows& out, std::vector<char>* matched) {
  out.vars = m.vars;
  out.dict = common_dict(a, b);
  if (matched != nullptr) matched->assign(a.rows, 0);
  const std::size_t wa = a.vars.size();
  const std::size_t wb = b.vars.size();
  KeyedProbe probe(b.cells.data(), b.rows, wb, m.shared_b);
  for (std::size_t ra = 0; ra < a.rows; ++ra) {
    probe.each(a.row(ra), m.shared_a, [&](std::size_t rb) {
      const std::size_t base = out.cells.size();
      out.cells.resize(base + m.vars.size());
      merge_cells(a.row(ra), wa, b.row(rb), wb, m, out.cells.data() + base);
      ++out.rows;
      if (matched != nullptr) (*matched)[ra] = 1;
    });
  }
}

}  // namespace

IdRows join(const IdRows& a, const IdRows& b) {
  IdRows out;
  join_core(a, b, merge_schema(a.vars, b.vars), out, nullptr);
  trim(out);
  return out;
}

IdRows left_join(const IdRows& a, const IdRows& b) {
  const MergeSchema m = merge_schema(a.vars, b.vars);
  IdRows out;
  std::vector<char> matched;
  join_core(a, b, m, out, &matched);
  // (O1 - O2): an a-row that emitted no pair has no compatible partner
  // (rows outside its key group differ on a both-bound shared var; partial
  // and full-scan paths were checked pairwise).
  for (std::size_t ra = 0; ra < matched.size(); ++ra) {
    if (matched[ra] == 0) append_placed(out, a, ra, m.from_a);
  }
  trim(out);
  return out;
}

IdRows left_join_conditioned(const IdRows& a, const IdRows& b,
                             const ExprPtr& cond) {
  if (cond == nullptr) return left_join(a, b);
  const MergeSchema m = merge_schema(a.vars, b.vars);
  IdRows out;
  out.vars = m.vars;
  out.dict = common_dict(a, b);
  ExprMemo satisfied(*cond, m.vars);
  std::vector<TermId> buf(m.vars.size());
  for (std::size_t ra = 0; ra < a.rows; ++ra) {
    bool extended = false;
    for (std::size_t rb = 0; rb < b.rows; ++rb) {
      if (!compatible(a.row(ra), b.row(rb), m)) continue;
      merge_cells(a.row(ra), a.vars.size(), b.row(rb), b.vars.size(), m,
                  buf.data());
      if (satisfied(buf.data(), out.dict)) {
        out.cells.insert(out.cells.end(), buf.begin(), buf.end());
        ++out.rows;
        extended = true;
      }
    }
    if (!extended) append_placed(out, a, ra, m.from_a);
  }
  trim(out);
  return out;
}

IdRows filter_set(const IdRows& in, const Expr& e) {
  IdRows out;
  out.vars = in.vars;
  out.dict = in.dict;
  ExprMemo satisfied(e, in.vars);
  const std::size_t width = in.vars.size();
  for (std::size_t r = 0; r < in.rows; ++r) {
    if (satisfied(in.row(r), in.dict)) {
      out.cells.insert(out.cells.end(), in.row(r), in.row(r) + width);
      ++out.rows;
    }
  }
  trim(out);
  return out;
}

std::vector<std::size_t> canonical_order(const IdRows& in) {
  // Dictionary ranks follow Term order, so comparing them is Binding's
  // order whatever the dictionary's id order.
  if (in.dict != nullptr) in.dict->require_order();
  std::vector<TermId> ranks = in.cells;
  for (TermId& id : ranks) {
    if (id != kUnbound) id = in.dict->rank(id);
  }
  const std::size_t width = in.vars.size();
  std::vector<std::size_t> order(in.rows);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t i, std::size_t j) {
                     return canonical_less(ranks.data() + i * width,
                                           ranks.data() + j * width, width);
                   });
  return order;
}

IdRows deduplicated(const IdRows& in) {
  const std::vector<std::size_t> order = canonical_order(in);
  const std::size_t width = in.vars.size();
  IdRows out;
  out.vars = in.vars;
  out.dict = in.dict;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const TermId* row = in.row(order[k]);
    if (k > 0 && std::equal(row, row + width, in.row(order[k - 1]))) continue;
    out.cells.insert(out.cells.end(), row, row + width);
    ++out.rows;
  }
  return out;
}

IdRows set_union(const IdRows& a, const IdRows& b) {
  const MergeSchema m = merge_schema(a.vars, b.vars);
  IdRows out;
  out.vars = m.vars;
  out.dict = common_dict(a, b);
  out.cells.reserve((a.rows + b.rows) * m.vars.size());
  for (std::size_t r = 0; r < a.rows; ++r) append_placed(out, a, r, m.from_a);
  for (std::size_t r = 0; r < b.rows; ++r) append_placed(out, b, r, m.from_b);
  return out;
}

IdRows project(const IdRows& in, const std::vector<std::string>& vars) {
  IdRows out;
  out.dict = in.dict;
  out.rows = in.rows;
  std::vector<std::size_t> keep;
  for (std::size_t c = 0; c < in.vars.size(); ++c) {
    if (std::find(vars.begin(), vars.end(), in.vars[c]) != vars.end()) {
      out.vars.push_back(in.vars[c]);
      keep.push_back(c);
    }
  }
  out.cells.reserve(in.rows * keep.size());
  for (std::size_t r = 0; r < in.rows; ++r) {
    for (std::size_t c : keep) out.cells.push_back(in.row(r)[c]);
  }
  return out;
}

IdRows rows_at(const IdRows& in, const std::vector<std::size_t>& picks) {
  IdRows out;
  out.vars = in.vars;
  out.dict = in.dict;
  const std::size_t width = in.vars.size();
  out.cells.reserve(picks.size() * width);
  for (std::size_t r : picks) {
    out.cells.insert(out.cells.end(), in.row(r), in.row(r) + width);
  }
  out.rows = picks.size();
  trim(out);
  return out;
}

// Each entry point interns into a private dictionary (the left operand
// first), runs the id kernel and materializes.

SolutionSet vec_join(const SolutionSet& a, const SolutionSet& b) {
  rdf::TermDictionary dict;
  const IdRows ia = intern_rows(a, dict);
  return join(ia, intern_rows(b, dict)).materialize();
}

SolutionSet vec_left_join(const SolutionSet& a, const SolutionSet& b) {
  rdf::TermDictionary dict;
  const IdRows ia = intern_rows(a, dict);
  return left_join(ia, intern_rows(b, dict)).materialize();
}

SolutionSet vec_left_join_conditioned(const SolutionSet& a,
                                      const SolutionSet& b,
                                      const ExprPtr& cond) {
  rdf::TermDictionary dict;
  const IdRows ia = intern_rows(a, dict);
  return left_join_conditioned(ia, intern_rows(b, dict), cond).materialize();
}

SolutionSet vec_filter_set(const SolutionSet& in, const Expr& e) {
  rdf::TermDictionary dict;
  return filter_set(intern_rows(in, dict), e).materialize();
}

SolutionSet vec_deduplicated(const SolutionSet& in) {
  rdf::TermDictionary dict;
  return deduplicated(intern_rows(in, dict)).materialize();
}

namespace {

void set_ranks(IdTable& t) {
  t.rank.resize(t.terms.size());
  for (std::size_t k = 0; k < t.by_rank.size(); ++k) {
    t.rank[t.by_rank[k]] = static_cast<std::uint32_t>(k);
  }
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

}  // namespace

std::size_t IdRows::byte_size() const {
  std::size_t n = SolutionSet{}.byte_size() + rows * Binding{}.byte_size();
  const std::size_t width = vars.size();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i] == kUnbound) continue;
    n += vars[i % width].size() + 1 + dict->term(cells[i]).byte_size();
  }
  return n;
}

SolutionSet IdRows::materialize() const {
  SolutionSet out;
  out.rows().reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    out.add(sparql::materialize(vars, row(r), dict));
  }
  return out;
}

IdRows intern_rows(const SolutionSet& s, rdf::TermDictionary& dict) {
  IdRows out;
  out.vars = variables_of(s);
  out.rows = s.size();
  out.dict = &dict;
  const std::size_t width = out.vars.size();
  out.cells.assign(s.size() * width, kUnbound);
  for (std::size_t r = 0; r < s.size(); ++r) {
    // Binding slots and vars are both sorted: a merge walk places cells.
    std::size_t c = 0;
    for (const auto& [name, term] : s.rows()[r].slots()) {
      while (out.vars[c] != name) ++c;
      out.cells[r * width + c++] = dict.intern(term);
    }
  }
  dict.refresh_order();
  return out;
}

IdTable id_table(const IdRows& rows) {
  IdTable t;
  t.vars = rows.vars;
  t.rows = rows.rows;
  t.cells.reserve(rows.cells.size());
  if (rows.dict != nullptr) rows.dict->require_order();
  IdTupleIndex local(1);  // dictionary id -> local id
  local.reserve(rows.cells.size());
  std::vector<std::uint32_t> ranks;  // local id -> dictionary rank
  for (const TermId& id : rows.cells) {
    if (id == kUnbound) {
      t.cells.push_back(kUnbound);
      continue;
    }
    const auto [l, fresh] = local.insert(&id);
    if (fresh) {
      t.terms.push_back(&rows.dict->term(id));
      ranks.push_back(rows.dict->rank(id));
    }
    t.cells.push_back(l);
  }
  // The rows use every local id: rank them all by dictionary rank.
  t.by_rank.resize(t.terms.size());
  std::iota(t.by_rank.begin(), t.by_rank.end(), TermId{0});
  std::sort(t.by_rank.begin(), t.by_rank.end(),
            [&](TermId x, TermId y) { return ranks[x] < ranks[y]; });
  set_ranks(t);
  return t;
}

void IdTupleIndex::grow() {
  const std::size_t stride = width_ + 1;
  const std::vector<TermId> old = std::exchange(slots_, {});
  capacity_ = std::max<std::size_t>(16, capacity_ * 2);
  slots_.assign(capacity_ * stride, 0);
  for (std::size_t i = 0; i < old.size(); i += stride) {
    if (old[i] == 0) continue;
    const std::size_t at = slot(old.data() + i + 1);
    for (std::size_t c = 0; c < stride; ++c) slots_[at + c] = old[i + c];
  }
}

void IdTupleIndex::add_row(const TermId* key, std::uint32_t r) {
  const auto [g, fresh] = insert(key);
  if (fresh) {
    head_.push_back(r);
    tail_.push_back(r);
  } else {
    next_[tail_[g]] = r;
    tail_[g] = r;
  }
  next_.resize(r + 1, kNone);
}

KeyedProbe::KeyedProbe(const TermId* cells, std::size_t rows,
                       std::size_t width, std::vector<std::size_t> cols)
    : cols_(std::move(cols)),
      rows_(rows),
      groups_(cols_.size()),
      key_(cols_.size()) {
  const std::size_t k = cols_.size();
  keys_.resize(rows * k);
  groups_.reserve(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    TermId* key = keys_.data() + r * k;
    bool full = true;
    for (std::size_t c = 0; c < k; ++c) {
      key[c] = cells[r * width + cols_[c]];
      full = full && key[c] != kUnbound;
    }
    if (full) {
      groups_.add_row(key, static_cast<std::uint32_t>(r));
    } else {
      pool_.push_back(static_cast<std::uint32_t>(r));
    }
  }
}

std::vector<TermId> MergeAccumulator::local_cells(const IdRows& rows) {
  assert(rows.dict == dict_ || rows.dict == nullptr);
  std::vector<TermId> cells(rows.cells.size(), kUnbound);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const TermId& id = rows.cells[i];
    if (id == kUnbound) continue;
    const auto [l, fresh] = from_dict_.insert(&id);
    if (fresh) {
      table_.terms.push_back(&dict_->term(id));
      dict_ids_.push_back(id);
    }
    cells[i] = l;
  }
  return cells;
}

void MergeAccumulator::set_carry(const IdRows& carry) {
  Carry c;
  c.vars = carry.vars;
  c.rows = carry.rows;
  c.cells = local_cells(carry);
  carry_ = std::move(c);
}

void MergeAccumulator::add(const IdRows& local) {
  if (local.rows == 0) return;
  dict_->require_order();
  merge(local.vars, local_cells(local), local.rows);
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
  if (!c.probe.has_value() || c.probe->cols() != m.shared_a) {
    c.probe.emplace(c.cells.data(), c.rows, c.vars.size(), m.shared_a);
  }
  const std::size_t wc = c.vars.size();
  const std::size_t wl = vars.size();
  const std::size_t wm = m.vars.size();
  std::vector<TermId> out;
  std::size_t out_rows = 0;
  for (std::size_t rl = 0; rl < rows; ++rl) {
    const TermId* lrow = cells.data() + rl * wl;
    c.probe->each(lrow, m.shared_b, [&](std::size_t rc) {
      out.resize(out.size() + wm);
      merge_cells(c.cells.data() + rc * wc, wc, lrow, wl, m,
                  out.data() + out_rows * wm);
      ++out_rows;
    });
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
    if (!held_.insert(table_.cells.data() + base).second) {
      table_.cells.resize(base);  // held already
      continue;
    }
    ++table_.rows;
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
  std::sort(fresh.begin(), fresh.end(),
            [&](TermId x, TermId y) { return rank_of(x) < rank_of(y); });
  insert_ranks(fresh);
}

void MergeAccumulator::insert_ranks(const std::vector<TermId>& fresh) {
  const std::vector<const rdf::Term*>& terms = table_.terms;
  const std::vector<TermId>& held = table_.by_rank;
  // The entry of `id` front-coded against the entry before it (`prev`;
  // kUnbound before the first entry).
  auto entry = [&](TermId prev, TermId id) {
    const rdf::Term& t = *terms[id];
    return common::front_coded_size(
        prev == kUnbound ? std::string_view{} : terms[prev]->lexical(),
        t.lexical(), t.datatype().size(), t.lang().size());
  };
  std::vector<TermId> merged;
  merged.reserve(held.size() + fresh.size());
  std::size_t i = 0;  // next held entry to place
  // Place held[i, end): held[i] now follows the fresh entry placed last,
  // so it is re-costed against that entry instead of held[i - 1].
  auto place_held = [&](std::size_t end) {
    if (i == end) return;
    if (!merged.empty() && (i == 0 || merged.back() != held[i - 1])) {
      terms_bytes_ -= entry(i == 0 ? kUnbound : held[i - 1], held[i]);
      terms_bytes_ += entry(merged.back(), held[i]);
    }
    merged.insert(merged.end(), held.begin() + static_cast<std::ptrdiff_t>(i),
                  held.begin() + static_cast<std::ptrdiff_t>(end));
    i = end;
  };
  for (TermId id : fresh) {
    // No held term equals a fresh one (local ids are distinct terms).
    const auto at = std::lower_bound(
        held.begin() + static_cast<std::ptrdiff_t>(i), held.end(), id,
        [&](TermId x, TermId y) { return rank_of(x) < rank_of(y); });
    place_held(static_cast<std::size_t>(at - held.begin()));
    terms_bytes_ += entry(merged.empty() ? kUnbound : merged.back(), id);
    merged.push_back(id);
  }
  place_held(held.size());
  table_.by_rank = std::move(merged);
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
  vars_bytes_ = common::prefixed_list_size(vars);
  held_ = IdTupleIndex(width);
  for (std::size_t r = 0; r < table_.rows; ++r) {
    held_.insert(table_.cells.data() + r * width);
  }
}

IdRows MergeAccumulator::take() {
  IdTable& t = table_;
  const std::size_t width = t.vars.size();
  // The table is dropped below, so its cells turn into ranks in place.
  for (TermId& l : t.cells) {
    if (l != kUnbound) l = t.rank[l];
  }
  std::vector<std::size_t> order(t.rows);
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Rows are distinct, so the canonical order is strict.
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return canonical_less(t.cells.data() + i * width,
                          t.cells.data() + j * width, width);
  });
  IdRows out;
  out.vars = t.vars;
  out.rows = t.rows;
  out.dict = dict_;
  out.cells.reserve(t.cells.size());
  for (std::size_t r : order) {
    for (std::size_t c = 0; c < width; ++c) {
      const TermId k = t.cells[r * width + c];
      out.cells.push_back(k == kUnbound ? kUnbound : dict_ids_[t.by_rank[k]]);
    }
  }
  *this = MergeAccumulator{dict_};
  return out;
}

}  // namespace ahsw::sparql
