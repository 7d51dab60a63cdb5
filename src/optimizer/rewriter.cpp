#include "optimizer/rewriter.hpp"

#include <algorithm>

namespace ahsw::optimizer {

using sparql::Algebra;
using sparql::AlgebraKind;
using sparql::AlgebraPtr;
using sparql::Expr;
using sparql::ExprKind;
using sparql::ExprPtr;

std::vector<ExprPtr> split_conjuncts(const ExprPtr& e) {
  std::vector<ExprPtr> out;
  if (e == nullptr) return out;
  if (e->kind == ExprKind::kAnd) {
    for (const ExprPtr& arg : e->args) {
      std::vector<ExprPtr> sub = split_conjuncts(arg);
      out.insert(out.end(), sub.begin(), sub.end());
    }
    return out;
  }
  out.push_back(e);
  return out;
}

ExprPtr combine_conjuncts(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr acc = conjuncts.back();
  for (auto it = std::next(conjuncts.rbegin()); it != conjuncts.rend(); ++it) {
    acc = Expr::binary(ExprKind::kAnd, *it, acc);
  }
  return acc;
}

namespace {

[[nodiscard]] std::set<std::string> pattern_variables(
    const rdf::TriplePattern& p) {
  std::set<std::string> out;
  if (const rdf::Variable* v = rdf::var_of(p.s)) out.insert(v->name);
  if (const rdf::Variable* v = rdf::var_of(p.p)) out.insert(v->name);
  if (const rdf::Variable* v = rdf::var_of(p.o)) out.insert(v->name);
  return out;
}

[[nodiscard]] bool subset(const std::set<std::string>& needle,
                          const std::set<std::string>& haystack) {
  return std::includes(haystack.begin(), haystack.end(), needle.begin(),
                       needle.end());
}

/// Push `conjuncts` into `a` as far as safe; conditions that cannot sink
/// remain in `left_over`.
AlgebraPtr sink(const AlgebraPtr& a, std::vector<ExprPtr> conjuncts,
                std::vector<ExprPtr>& left_over);

/// Recurse without pending filters.
AlgebraPtr rewrite(const AlgebraPtr& a) {
  std::vector<ExprPtr> none;
  std::vector<ExprPtr> rest;
  AlgebraPtr out = sink(a, none, rest);
  // With no pending conjuncts nothing can be left over.
  return out;
}

AlgebraPtr sink(const AlgebraPtr& a, std::vector<ExprPtr> conjuncts,
                std::vector<ExprPtr>& left_over) {
  switch (a->kind) {
    case AlgebraKind::kFilter: {
      // Decompose and merge with whatever is already sinking.
      std::vector<ExprPtr> mine = split_conjuncts(a->expr);
      mine.insert(mine.end(), conjuncts.begin(), conjuncts.end());
      std::vector<ExprPtr> rest;
      AlgebraPtr inner = sink(a->left, std::move(mine), rest);
      ExprPtr remaining = combine_conjuncts(rest);
      return remaining == nullptr ? inner
                                  : Algebra::make_filter(remaining, inner);
    }

    case AlgebraKind::kBgp: {
      // Attach each conjunct to a triple pattern that binds all its
      // variables (certain within a BGP: every pattern always binds its
      // variables). Conditions spanning several patterns stay above.
      std::vector<sparql::BgpPattern> patterns = a->bgp;
      for (const ExprPtr& c : conjuncts) {
        std::set<std::string> cvars = sparql::variables_of(*c);
        bool placed = false;
        for (sparql::BgpPattern& p : patterns) {
          if (subset(cvars, pattern_variables(p.pattern))) {
            p.pushed_filter =
                p.pushed_filter == nullptr
                    ? c
                    : Expr::binary(ExprKind::kAnd, p.pushed_filter, c);
            placed = true;
            break;
          }
        }
        if (!placed) left_over.push_back(c);
      }
      return Algebra::make_bgp2(std::move(patterns));
    }

    case AlgebraKind::kJoin: {
      std::set<std::string> lv = a->left->certain_variables();
      std::set<std::string> rv = a->right->certain_variables();
      std::vector<ExprPtr> to_left, to_right, here;
      for (const ExprPtr& c : conjuncts) {
        std::set<std::string> cvars = sparql::variables_of(*c);
        if (subset(cvars, lv)) {
          to_left.push_back(c);
        } else if (subset(cvars, rv)) {
          to_right.push_back(c);
        } else {
          here.push_back(c);
        }
      }
      std::vector<ExprPtr> rest_l, rest_r;
      AlgebraPtr l = sink(a->left, std::move(to_left), rest_l);
      AlgebraPtr r = sink(a->right, std::move(to_right), rest_r);
      AlgebraPtr out = Algebra::make_join(l, r);
      here.insert(here.end(), rest_l.begin(), rest_l.end());
      here.insert(here.end(), rest_r.begin(), rest_r.end());
      ExprPtr remaining = combine_conjuncts(here);
      return remaining == nullptr ? out : Algebra::make_filter(remaining, out);
    }

    case AlgebraKind::kLeftJoin: {
      // Only the left (mandatory) side may absorb filters: pushing into the
      // optional side would turn "no match" into "match rejected" and
      // change results. Conditions mentioning optional-only variables stay
      // above the LeftJoin.
      std::set<std::string> lv = a->left->certain_variables();
      std::vector<ExprPtr> to_left, here;
      for (const ExprPtr& c : conjuncts) {
        if (subset(sparql::variables_of(*c), lv)) {
          to_left.push_back(c);
        } else {
          here.push_back(c);
        }
      }
      std::vector<ExprPtr> rest_l;
      AlgebraPtr l = sink(a->left, std::move(to_left), rest_l);
      AlgebraPtr r = rewrite(a->right);
      AlgebraPtr out = Algebra::make_left_join(l, r, a->expr);
      here.insert(here.end(), rest_l.begin(), rest_l.end());
      ExprPtr remaining = combine_conjuncts(here);
      return remaining == nullptr ? out : Algebra::make_filter(remaining, out);
    }

    case AlgebraKind::kUnion: {
      // Filter distributes over Union: push a copy into each branch when
      // the branch binds the variables; otherwise keep above.
      std::set<std::string> lv = a->left->certain_variables();
      std::set<std::string> rv = a->right->certain_variables();
      std::vector<ExprPtr> to_both, here;
      for (const ExprPtr& c : conjuncts) {
        std::set<std::string> cvars = sparql::variables_of(*c);
        if (subset(cvars, lv) && subset(cvars, rv)) {
          to_both.push_back(c);
        } else {
          here.push_back(c);
        }
      }
      std::vector<ExprPtr> rest_l, rest_r;
      AlgebraPtr l = sink(a->left, to_both, rest_l);
      AlgebraPtr r = sink(a->right, to_both, rest_r);
      AlgebraPtr out = Algebra::make_union(l, r);
      // A conjunct that failed to sink in either branch must apply above;
      // emitting it once is enough (rest_l and rest_r would hold copies).
      for (const ExprPtr& c : rest_l) here.push_back(c);
      (void)rest_r;  // duplicates of rest_l by construction
      ExprPtr remaining = combine_conjuncts(here);
      return remaining == nullptr ? out : Algebra::make_filter(remaining, out);
    }
  }
  return a;
}

}  // namespace

AlgebraPtr push_filters(const AlgebraPtr& a) { return rewrite(a); }

}  // namespace ahsw::optimizer
