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

SolutionSet join(const SolutionSet& a, const SolutionSet& b) {
  SolutionSet out;
  const std::vector<std::string> shared = shared_variables(a, b);

  if (shared.empty()) {
    // Cartesian product (no shared vars => all pairs compatible).
    for (const Binding& ra : a.rows()) {
      for (const Binding& rb : b.rows()) {
        out.add(ra.merged(rb));
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
        if (ra.compatible(*it->second)) out.add(ra.merged(*it->second));
      }
      for (const Binding* rb : partial) {
        if (ra.compatible(*rb)) out.add(ra.merged(*rb));
      }
    } else {
      for (const Binding& rb : b.rows()) {
        if (ra.compatible(rb)) out.add(ra.merged(rb));
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
      if (ra.compatible(rb)) {
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
      if (u1.compatible(u2)) {
        Binding m = u1.merged(u2);
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

}  // namespace ahsw::sparql::row_reference
