#include "support/row_reference.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ahsw::sparql::row_reference {

namespace {

/// Key of a binding restricted to `vars` (all of which must be bound);
/// returns false if some var is unbound in b (then the row can join with
/// anything on that var and needs the slow path).
bool restricted_key(const Binding& b, const std::vector<std::string>& vars,
                    std::string& key) {
  key.clear();
  for (const std::string& v : vars) {
    const rdf::Term* t = b.get(v);
    if (t == nullptr) return false;
    key += t->to_string();
    key += '\x1f';
  }
  return true;
}

std::vector<std::string> shared_variables(const SolutionSet& a,
                                          const SolutionSet& b) {
  std::set<std::string> va;
  for (const Binding& r : a.rows()) {
    for (const auto& [name, _] : r.slots()) va.insert(name);
  }
  std::set<std::string> shared;
  for (const Binding& r : b.rows()) {
    for (const auto& [name, _] : r.slots()) {
      if (va.count(name) > 0) shared.insert(name);
    }
  }
  return {shared.begin(), shared.end()};
}

}  // namespace

bool compatible(const Binding& a, const Binding& b) noexcept {
  // Merge-walk over two sorted slot vectors.
  auto x = a.slots().begin();
  auto y = b.slots().begin();
  while (x != a.slots().end() && y != b.slots().end()) {
    if (x->first < y->first) {
      ++x;
    } else if (y->first < x->first) {
      ++y;
    } else {
      if (x->second != y->second) return false;
      ++x;
      ++y;
    }
  }
  return true;
}

Binding merged(const Binding& a, const Binding& b) {
  Binding out;
  out.reserve(a.size() + b.size());
  auto x = a.slots().begin();
  auto y = b.slots().begin();
  // Both walks are sorted by name, so each slot appends at the back.
  while (x != a.slots().end() || y != b.slots().end()) {
    if (y == b.slots().end() ||
        (x != a.slots().end() && x->first < y->first)) {
      out.append(x->first, x->second);
      ++x;
    } else if (x == a.slots().end() || y->first < x->first) {
      out.append(y->first, y->second);
      ++y;
    } else {
      out.append(x->first, x->second);  // compatible => equal terms
      ++x;
      ++y;
    }
  }
  return out;
}

Binding projected(const Binding& b, const std::vector<std::string>& vars) {
  Binding out;
  for (const std::string& v : vars) {
    if (const rdf::Term* t = b.get(v)) out.set(v, *t);
  }
  return out;
}

SolutionSet join(const SolutionSet& a, const SolutionSet& b) {
  SolutionSet out;
  const std::vector<std::string> shared = shared_variables(a, b);

  if (shared.empty()) {
    // Cartesian product (no shared vars => all pairs compatible).
    for (const Binding& ra : a.rows()) {
      for (const Binding& rb : b.rows()) {
        out.add(merged(ra, rb));
      }
    }
    return out;
  }

  // Hash-join on rows of `b` that bind every shared var; rows that do not
  // (possible after OPTIONAL) fall back to pairwise compatibility checks.
  std::multimap<std::string, const Binding*> table;
  std::vector<const Binding*> partial;
  std::string key;
  for (const Binding& rb : b.rows()) {
    if (restricted_key(rb, shared, key)) {
      table.emplace(key, &rb);
    } else {
      partial.push_back(&rb);
    }
  }

  for (const Binding& ra : a.rows()) {
    if (restricted_key(ra, shared, key)) {
      auto [lo, hi] = table.equal_range(key);
      for (auto it = lo; it != hi; ++it) {
        // Shared vars equal by construction; still need full compatibility
        // in case of vars bound in b but unbound in this a-row's shared set.
        if (compatible(ra, *it->second)) out.add(merged(ra, *it->second));
      }
      for (const Binding* rb : partial) {
        if (compatible(ra, *rb)) out.add(merged(ra, *rb));
      }
    } else {
      for (const Binding& rb : b.rows()) {
        if (compatible(ra, rb)) out.add(merged(ra, rb));
      }
    }
  }
  return out;
}

SolutionSet minus(const SolutionSet& a, const SolutionSet& b) {
  SolutionSet out;
  for (const Binding& ra : a.rows()) {
    bool any_compatible = false;
    for (const Binding& rb : b.rows()) {
      if (compatible(ra, rb)) {
        any_compatible = true;
        break;
      }
    }
    if (!any_compatible) out.add(ra);
  }
  return out;
}

SolutionSet left_join(const SolutionSet& a, const SolutionSet& b) {
  SolutionSet joined = row_reference::join(a, b);
  // (O1 - O2): keep rows of a with no compatible partner in b.
  SolutionSet unmatched = row_reference::minus(a, b);
  for (const Binding& r : unmatched.rows()) joined.add(r);
  return joined;
}

SolutionSet left_join_conditioned(const SolutionSet& a, const SolutionSet& b,
                                  const ExprPtr& cond) {
  if (cond == nullptr) return row_reference::left_join(a, b);
  // LeftJoin(O1, O2, F): u1 extends with every compatible u2 whose merge
  // satisfies F, and survives unextended iff no such u2 exists.
  SolutionSet out;
  for (const Binding& u1 : a.rows()) {
    bool extended = false;
    for (const Binding& u2 : b.rows()) {
      if (compatible(u1, u2)) {
        Binding m = merged(u1, u2);
        if (satisfies(*cond, m)) {
          out.add(std::move(m));
          extended = true;
        }
      }
    }
    if (!extended) out.add(u1);
  }
  return out;
}

SolutionSet filter_set(const SolutionSet& in, const Expr& e) {
  SolutionSet out;
  for (const Binding& b : in.rows()) {
    if (satisfies(e, b)) out.add(b);
  }
  return out;
}

SolutionSet deduplicated(SolutionSet in) {
  in.normalize();
  auto& rows = in.rows();
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return in;
}

namespace {

/// Sort `set` according to ORDER BY conditions (stable; unbound orders
/// lowest, numeric before lexical comparison).
void order_solutions(SolutionSet& set,
                     const std::vector<OrderCondition>& order) {
  const std::vector<std::size_t> perm = order_permutation(set, order);
  std::vector<Binding> sorted;
  sorted.reserve(perm.size());
  for (std::size_t i : perm) sorted.push_back(std::move(set.rows()[i]));
  set.rows() = std::move(sorted);
}

/// Substitute the variables bound in `b` into `p`.
rdf::TriplePattern substituted(const rdf::TriplePattern& p, const Binding& b) {
  auto sub = [&](const rdf::PatternTerm& pt) -> rdf::PatternTerm {
    if (const rdf::Variable* v = rdf::var_of(pt)) {
      if (const rdf::Term* t = b.get(v->name)) return *t;
    }
    return pt;
  };
  return rdf::TriplePattern{sub(p.s), sub(p.p), sub(p.o)};
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

QueryResult finalize_result(const Query& q, SolutionSet raw,
                            const rdf::TripleStore* store) {
  QueryResult res;
  res.form = q.form;

  if (q.order_by.empty()) {
    raw.normalize();  // deterministic output when no explicit order given
  } else {
    order_solutions(raw, q.order_by);
  }

  switch (q.form) {
    case QueryForm::kAsk:
      res.ask_answer = !raw.empty();
      return res;

    case QueryForm::kConstruct: {
      // Rows that leave a template position unbound are skipped (per spec).
      std::set<rdf::Triple> out;
      for (const Binding& b : raw.rows()) {
        for (const rdf::TriplePattern& tp : q.construct_template) {
          rdf::TriplePattern concrete = substituted(tp, b);
          if (concrete.bound_count() != 3) continue;
          out.insert(rdf::Triple{*concrete.bound_s(), *concrete.bound_p(),
                                 *concrete.bound_o()});
        }
      }
      res.graph.assign(out.begin(), out.end());
      return res;
    }

    case QueryForm::kDescribe: {
      if (store == nullptr) return res;
      std::set<rdf::Triple> triples;
      for (const rdf::PatternTerm& target : q.describe_targets) {
        if (const rdf::Term* t = rdf::term_of(target)) {
          describe_term(*t, *store, triples);
        } else {
          const rdf::Variable& v = std::get<rdf::Variable>(target);
          for (const Binding& b : raw.rows()) {
            if (const rdf::Term* bound_term = b.get(v.name)) {
              describe_term(*bound_term, *store, triples);
            }
          }
        }
      }
      res.graph.assign(triples.begin(), triples.end());
      return res;
    }

    case QueryForm::kSelect:
      break;
  }

  // SELECT: projection, distinct/reduced, slice.
  res.variables = q.select_all ? q.pattern_variables() : q.select_vars;
  SolutionSet projected;
  for (const Binding& b : raw.rows()) {
    projected.add(row_reference::projected(b, res.variables));
  }
  if (q.distinct) {
    std::set<Binding> seen;
    SolutionSet unique;
    for (Binding& b : projected.rows()) {
      if (seen.insert(b).second) unique.add(std::move(b));
    }
    projected = std::move(unique);
  } else if (q.reduced) {
    auto& rows = projected.rows();
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  }
  auto& rows = projected.rows();
  std::size_t off = std::min<std::size_t>(rows.size(), q.offset);
  rows.erase(rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(off));
  if (q.limit.has_value() && rows.size() > *q.limit) rows.resize(*q.limit);
  res.solutions = std::move(projected);
  return res;
}

}  // namespace ahsw::sparql::row_reference
