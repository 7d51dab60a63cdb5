#include "sparql/eval.hpp"

#include "sparql/columnar.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <numeric>
#include <set>
#include <string>

namespace ahsw::sparql {

namespace {

/// Bind the variables of `p` against a concrete triple, extending `base`.
/// Returns false on conflict (repeated variable bound to different terms or
/// disagreement with an existing binding).
bool bind_triple(const rdf::TriplePattern& p, const rdf::Triple& t,
                 const Binding& base, Binding& out) {
  out = base;
  auto bind_pos = [&](const rdf::PatternTerm& pt,
                      const rdf::Term& value) -> bool {
    if (const rdf::Variable* v = rdf::var_of(pt)) {
      if (const rdf::Term* existing = out.get(v->name)) {
        return *existing == value;
      }
      out.set(v->name, value);
      return true;
    }
    return std::get<rdf::Term>(pt) == value;
  };
  return bind_pos(p.s, t.s) && bind_pos(p.p, t.p) && bind_pos(p.o, t.o);
}

/// Substitute variables bound in `b` into `p` to narrow the index scan.
rdf::TriplePattern substituted(const rdf::TriplePattern& p, const Binding& b) {
  auto sub = [&](const rdf::PatternTerm& pt) -> rdf::PatternTerm {
    if (const rdf::Variable* v = rdf::var_of(pt)) {
      if (const rdf::Term* t = b.get(v->name)) return *t;
    }
    return pt;
  };
  return rdf::TriplePattern{sub(p.s), sub(p.p), sub(p.o)};
}

/// Selectivity heuristic for greedy BGP ordering: more bound positions (after
/// substitution of already-certain variables) evaluate first.
std::size_t pick_next(const std::vector<BgpPattern>& bgp,
                      const std::vector<bool>& done,
                      const std::set<std::string>& bound_vars) {
  std::size_t best = bgp.size();
  int best_score = -1;
  for (std::size_t i = 0; i < bgp.size(); ++i) {
    if (done[i]) continue;
    const rdf::TriplePattern& p = bgp[i].pattern;
    int score = 0;
    bool shares = false;
    auto pos_score = [&](const rdf::PatternTerm& pt) {
      if (const rdf::Variable* v = rdf::var_of(pt)) {
        if (bound_vars.count(v->name) > 0) {
          score += 2;
          shares = true;
        }
      } else {
        score += 2;
      }
    };
    pos_score(p.s);
    pos_score(p.p);
    pos_score(p.o);
    if (shares || bound_vars.empty()) score += 1;  // avoid cartesian products
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  assert(best < bgp.size());
  return best;
}

}  // namespace

IdRows LocalEngine::match_ids(const BgpPattern& p) const {
  IdRows out;
  out.dict = &store_->dictionary();
  const std::array<const rdf::PatternTerm*, 3> positions = {
      &p.pattern.s, &p.pattern.p, &p.pattern.o};
  for (const rdf::PatternTerm* pt : positions) {
    if (const rdf::Variable* v = rdf::var_of(*pt)) out.vars.push_back(v->name);
  }
  std::sort(out.vars.begin(), out.vars.end());
  out.vars.erase(std::unique(out.vars.begin(), out.vars.end()),
                 out.vars.end());
  const std::size_t width = out.vars.size();
  // Column of a variable in the sorted schema; kNoCol for a bound position
  // or a variable the pattern does not bind.
  constexpr std::size_t kNoCol = 3;
  auto column_of = [&](const std::string& name) {
    auto it = std::lower_bound(out.vars.begin(), out.vars.end(), name);
    if (it == out.vars.end() || *it != name) return kNoCol;
    return static_cast<std::size_t>(it - out.vars.begin());
  };
  std::array<std::size_t, 3> col{};
  for (std::size_t k = 0; k < 3; ++k) {
    const rdf::Variable* v = rdf::var_of(*positions[k]);
    col[k] = v == nullptr ? kNoCol : column_of(v->name);
  }

  const Expr* filter = p.pushed_filter.get();
  std::array<rdf::TermId, 3> row{};
  auto visit = [&](rdf::TermId s, rdf::TermId pr, rdf::TermId o) {
    const std::array<rdf::TermId, 3> ids = {s, pr, o};
    row.fill(rdf::kInvalidTermId);
    for (std::size_t k = 0; k < 3; ++k) {
      if (col[k] == kNoCol) continue;
      rdf::TermId& cell = row[col[k]];
      // A repeated variable must take the same term, i.e. the same id.
      if (cell != rdf::kInvalidTermId && cell != ids[k]) return true;
      cell = ids[k];
    }
    if (filter != nullptr) {
      Binding b;
      for (std::size_t c = 0; c < width; ++c) {
        b.set(out.vars[c], out.dict->term(row[c]));
      }
      if (!satisfies(*filter, b)) return true;
    }
    out.cells.insert(out.cells.end(), row.begin(), row.begin() + width);
    ++out.rows;
    return true;
  };
  store_->match_ids(p.pattern, visit);
  if (out.rows == 0) out.vars.clear();
  return out;
}

SolutionSet LocalEngine::match_pattern(const BgpPattern& p) const {
  return match_ids(p).materialize();
}

SolutionSet LocalEngine::extend(const SolutionSet& input,
                                const BgpPattern& p) const {
  SolutionSet out;
  for (const Binding& base : input.rows()) {
    rdf::TriplePattern concrete = substituted(p.pattern, base);
    store_->match(concrete, [&](const rdf::Triple& t) {
      Binding b;
      if (bind_triple(p.pattern, t, base, b)) {
        if (p.pushed_filter == nullptr || satisfies(*p.pushed_filter, b)) {
          out.add(std::move(b));
        }
      }
    });
  }
  return out;
}

SolutionSet LocalEngine::evaluate_bgp(
    const std::vector<BgpPattern>& bgp) const {
  // The empty BGP has exactly one solution: the empty mapping (W3C).
  SolutionSet acc;
  acc.add(Binding{});
  if (bgp.empty()) return acc;

  std::vector<bool> done(bgp.size(), false);
  std::set<std::string> bound_vars;
  for (std::size_t step = 0; step < bgp.size(); ++step) {
    std::size_t i = pick_next(bgp, done, bound_vars);
    done[i] = true;
    acc = extend(acc, bgp[i]);
    if (acc.empty()) return acc;
    auto add_var = [&](const rdf::PatternTerm& pt) {
      if (const rdf::Variable* v = rdf::var_of(pt)) bound_vars.insert(v->name);
    };
    add_var(bgp[i].pattern.s);
    add_var(bgp[i].pattern.p);
    add_var(bgp[i].pattern.o);
  }
  return acc;
}

SolutionSet LocalEngine::evaluate(const Algebra& a) const {
  switch (a.kind) {
    case AlgebraKind::kBgp:
      return evaluate_bgp(a.bgp);
    case AlgebraKind::kJoin:
      return vec_join(evaluate(*a.left), evaluate(*a.right));
    case AlgebraKind::kLeftJoin:
      return vec_left_join_conditioned(evaluate(*a.left),
                                       evaluate(*a.right), a.expr);
    case AlgebraKind::kUnion:
      return set_union(evaluate(*a.left), evaluate(*a.right));
    case AlgebraKind::kFilter:
      return vec_filter_set(evaluate(*a.left), *a.expr);
  }
  return {};
}

std::vector<std::size_t> order_permutation(
    const SolutionSet& set, const std::vector<OrderCondition>& order) {
  auto value_less = [](const ExprValue& x, const ExprValue& y) -> int {
    // Errors / unbound sort lowest, then by numeric value, then by term
    // surface form.
    if (!x && !y) return 0;
    if (!x) return -1;
    if (!y) return 1;
    double nx = 0.0, ny = 0.0;
    if (x->numeric_value(nx) && y->numeric_value(ny)) {
      if (nx < ny) return -1;
      if (nx > ny) return 1;
      return 0;
    }
    std::string sx = x->to_string();
    std::string sy = y->to_string();
    return sx.compare(sy) < 0 ? -1 : (sx == sy ? 0 : 1);
  };
  const std::vector<Binding>& rows = set.rows();
  std::vector<std::size_t> perm(rows.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::stable_sort(perm.begin(), perm.end(), [&](std::size_t i, std::size_t j) {
    for (const OrderCondition& cond : order) {
      ExprValue va = evaluate(*cond.expr, rows[i]);
      ExprValue vb = evaluate(*cond.expr, rows[j]);
      int c = value_less(va, vb);
      if (c != 0) return cond.ascending ? c < 0 : c > 0;
    }
    return false;
  });
  return perm;
}

std::vector<std::size_t> order_permutation(
    const IdRows& rows, const std::vector<OrderCondition>& order) {
  // A condition's value depends only on the variables it reads, so only
  // their columns are materialized; projection keeps rows and their order.
  std::set<std::string> read;
  for (const OrderCondition& cond : order) {
    read.merge(variables_of(*cond.expr));
  }
  return order_permutation(
      project(rows, {read.begin(), read.end()}).materialize(), order);
}

namespace {

/// Instantiate a CONSTRUCT template against the rows; rows that leave any
/// template position unbound are skipped (per spec), duplicates removed.
/// Only the distinct tuples of the template's variables are materialized.
std::vector<rdf::Triple> instantiate_template(
    const std::vector<rdf::TriplePattern>& tmpl, const IdRows& rows) {
  std::vector<std::string> vars;
  for (const rdf::TriplePattern& tp : tmpl) {
    for (const rdf::PatternTerm* pt : {&tp.s, &tp.p, &tp.o}) {
      if (const rdf::Variable* v = rdf::var_of(*pt)) vars.push_back(v->name);
    }
  }
  const SolutionSet tuples = deduplicated(project(rows, vars)).materialize();
  std::set<rdf::Triple> out;
  for (const Binding& b : tuples.rows()) {
    for (const rdf::TriplePattern& tp : tmpl) {
      rdf::TriplePattern concrete = substituted(tp, b);
      if (concrete.bound_count() != 3) continue;
      out.insert(rdf::Triple{*concrete.bound_s(), *concrete.bound_p(),
                             *concrete.bound_o()});
    }
  }
  return {out.begin(), out.end()};
}

/// All triples mentioning `t` as subject or object.
void describe_term(const rdf::Term& t, const rdf::TripleStore& store,
                   std::set<rdf::Triple>& out) {
  for (const rdf::Triple& tr :
       store.match(rdf::TriplePattern{t, rdf::Variable{"p"},
                                      rdf::Variable{"o"}})) {
    out.insert(tr);
  }
  for (const rdf::Triple& tr :
       store.match(rdf::TriplePattern{rdf::Variable{"s"}, rdf::Variable{"p"},
                                      t})) {
    out.insert(tr);
  }
}

}  // namespace

QueryResult finalize_result(const Query& q, const IdRows& raw,
                            const rdf::TripleStore* store) {
  QueryResult res;
  res.form = q.form;

  switch (q.form) {
    case QueryForm::kAsk:
      res.ask_answer = !raw.empty();
      return res;

    case QueryForm::kConstruct:
      res.graph = instantiate_template(q.construct_template, raw);
      return res;

    case QueryForm::kDescribe: {
      if (store == nullptr) return res;
      std::set<rdf::Triple> triples;
      for (const rdf::PatternTerm& target : q.describe_targets) {
        if (const rdf::Term* t = rdf::term_of(target)) {
          describe_term(*t, *store, triples);
          continue;
        }
        const std::string& v = std::get<rdf::Variable>(target).name;
        const SolutionSet bound =
            deduplicated(project(raw, {v})).materialize();
        for (const Binding& b : bound.rows()) {
          if (const rdf::Term* t = b.get(v)) describe_term(*t, *store, triples);
        }
      }
      res.graph.assign(triples.begin(), triples.end());
      return res;
    }

    case QueryForm::kSelect:
      break;
  }

  // SELECT: canonical order (deterministic output when no explicit order
  // is given) or ORDER BY, then projection, distinct/reduced and slice, all
  // on row indexes; only the delivered rows are materialized.
  res.variables = q.select_all ? q.pattern_variables() : q.select_vars;
  std::vector<std::size_t> order = q.order_by.empty()
                                       ? canonical_order(raw)
                                       : order_permutation(raw, q.order_by);
  const IdRows projected = project(raw, res.variables);
  const std::size_t width = projected.vars.size();
  std::vector<std::size_t> kept;
  if (q.distinct) {
    // First occurrence of each projected id tuple.
    IdTupleIndex seen(width);
    seen.reserve(order.size());
    for (std::size_t r : order) {
      if (seen.insert(projected.row(r)).second) kept.push_back(r);
    }
  } else if (q.reduced) {
    for (std::size_t r : order) {
      if (kept.empty() ||
          !std::equal(projected.row(r), projected.row(r) + width,
                      projected.row(kept.back()))) {
        kept.push_back(r);
      }
    }
  } else {
    kept = std::move(order);
  }
  const std::size_t from = std::min<std::size_t>(kept.size(), q.offset);
  std::size_t to = kept.size();
  if (q.limit.has_value() && *q.limit < to - from) to = from + *q.limit;
  res.solutions =
      rows_at(projected, {kept.begin() + static_cast<std::ptrdiff_t>(from),
                          kept.begin() + static_cast<std::ptrdiff_t>(to)})
          .materialize();
  return res;
}

SolutionSet deduplicated(const SolutionSet& in) {
  return vec_deduplicated(in);
}

QueryResult execute_local(const Query& q, const rdf::TripleStore& store) {
  LocalEngine engine(store);
  AlgebraPtr pattern = translate_pattern(q.where);
  rdf::TermDictionary dict;
  return finalize_result(q, intern_rows(engine.evaluate(*pattern), dict),
                         &store);
}

}  // namespace ahsw::sparql
