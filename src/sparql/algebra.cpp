#include "sparql/algebra.hpp"

namespace ahsw::sparql {

namespace {

// Nodes are built mutable and only become const (AlgebraPtr) when handed
// out, so construction never casts constness away.
std::shared_ptr<Algebra> node(AlgebraKind k) {
  auto a = std::make_shared<Algebra>();
  a->kind = k;
  return a;
}

[[nodiscard]] bool is_empty_bgp(const AlgebraPtr& a) {
  return a != nullptr && a->kind == AlgebraKind::kBgp && a->bgp.empty();
}

void pattern_vars(const rdf::TriplePattern& tp, std::set<std::string>& out) {
  if (const rdf::Variable* v = rdf::var_of(tp.s)) out.insert(v->name);
  if (const rdf::Variable* v = rdf::var_of(tp.p)) out.insert(v->name);
  if (const rdf::Variable* v = rdf::var_of(tp.o)) out.insert(v->name);
}

}  // namespace

std::string BgpPattern::to_string() const {
  if (pushed_filter == nullptr) return pattern.to_string();
  return "Filter(" + pushed_filter->to_string() + ", " + pattern.to_string() +
         ")";
}

AlgebraPtr Algebra::make_bgp(std::vector<rdf::TriplePattern> patterns) {
  std::vector<BgpPattern> ps;
  ps.reserve(patterns.size());
  for (rdf::TriplePattern& p : patterns) {
    ps.push_back(BgpPattern{std::move(p), nullptr});
  }
  return make_bgp2(std::move(ps));
}

AlgebraPtr Algebra::make_bgp2(std::vector<BgpPattern> patterns) {
  std::shared_ptr<Algebra> a = node(AlgebraKind::kBgp);
  a->bgp = std::move(patterns);
  return a;
}

AlgebraPtr Algebra::make_join(AlgebraPtr l, AlgebraPtr r) {
  // Identity: Join(Z, A) = A where Z is the empty BGP (W3C simplification).
  if (is_empty_bgp(l)) return r;
  if (is_empty_bgp(r)) return l;
  // Fuse adjacent BGPs so that `{ P1. P2 }` yields BGP(P1 . P2), the form
  // the paper's Fig. 6 expects, rather than Join(BGP(P1), BGP(P2)).
  if (l->kind == AlgebraKind::kBgp && r->kind == AlgebraKind::kBgp) {
    std::vector<BgpPattern> merged = l->bgp;
    merged.insert(merged.end(), r->bgp.begin(), r->bgp.end());
    return make_bgp2(std::move(merged));
  }
  std::shared_ptr<Algebra> a = node(AlgebraKind::kJoin);
  a->left = std::move(l);
  a->right = std::move(r);
  return a;
}

AlgebraPtr Algebra::make_left_join(AlgebraPtr l, AlgebraPtr r,
                                   ExprPtr condition) {
  std::shared_ptr<Algebra> a = node(AlgebraKind::kLeftJoin);
  a->left = std::move(l);
  a->right = std::move(r);
  a->expr = std::move(condition);
  return a;
}

AlgebraPtr Algebra::make_union(AlgebraPtr l, AlgebraPtr r) {
  std::shared_ptr<Algebra> a = node(AlgebraKind::kUnion);
  a->left = std::move(l);
  a->right = std::move(r);
  return a;
}

AlgebraPtr Algebra::make_filter(ExprPtr condition, AlgebraPtr inner) {
  std::shared_ptr<Algebra> a = node(AlgebraKind::kFilter);
  a->expr = std::move(condition);
  a->left = std::move(inner);
  return a;
}

std::set<std::string> Algebra::certain_variables() const {
  std::set<std::string> out;
  switch (kind) {
    case AlgebraKind::kBgp:
      for (const BgpPattern& p : bgp) pattern_vars(p.pattern, out);
      return out;
    case AlgebraKind::kJoin: {
      out = left->certain_variables();
      std::set<std::string> r = right->certain_variables();
      out.insert(r.begin(), r.end());
      return out;
    }
    case AlgebraKind::kLeftJoin:
      return left->certain_variables();  // right side is optional
    case AlgebraKind::kUnion: {
      // Only variables certain in BOTH branches are certain overall.
      std::set<std::string> l = left->certain_variables();
      std::set<std::string> r = right->certain_variables();
      for (const std::string& v : l) {
        if (r.count(v) > 0) out.insert(v);
      }
      return out;
    }
    case AlgebraKind::kFilter:
      return left->certain_variables();
  }
  return out;
}

std::string Algebra::to_string() const {
  switch (kind) {
    case AlgebraKind::kBgp: {
      std::string out = "BGP(";
      for (std::size_t i = 0; i < bgp.size(); ++i) {
        if (i != 0) out += " . ";
        out += bgp[i].to_string();
      }
      return out + ")";
    }
    case AlgebraKind::kJoin:
      return "Join(" + left->to_string() + ", " + right->to_string() + ")";
    case AlgebraKind::kLeftJoin:
      return "LeftJoin(" + left->to_string() + ", " + right->to_string() +
             ", " + (expr != nullptr ? expr->to_string() : "true") + ")";
    case AlgebraKind::kUnion:
      return "Union(" + left->to_string() + ", " + right->to_string() + ")";
    case AlgebraKind::kFilter:
      return "Filter(" + expr->to_string() + ", " + left->to_string() + ")";
  }
  return {};
}

AlgebraPtr translate_pattern(const GroupPattern& group) {
  // W3C ToAlgebra over one group: fold elements left to right, fusing
  // triples into BGPs; FILTERs collect and apply over the whole group.
  AlgebraPtr acc = Algebra::make_bgp({});
  std::vector<ExprPtr> filters;

  for (const GroupElement& el : group.elements) {
    switch (el.kind) {
      case GroupElement::Kind::kTriple:
        acc = Algebra::make_join(acc, Algebra::make_bgp({el.triple}));
        break;
      case GroupElement::Kind::kFilter:
        filters.push_back(el.filter);
        break;
      case GroupElement::Kind::kOptional: {
        AlgebraPtr inner = translate_pattern(el.groups[0]);
        // If the optional group is itself Filter(F, A), the condition is
        // absorbed into the LeftJoin (W3C rule); otherwise condition=true.
        if (inner->kind == AlgebraKind::kFilter) {
          acc = Algebra::make_left_join(acc, inner->left, inner->expr);
        } else {
          acc = Algebra::make_left_join(acc, inner, nullptr);
        }
        break;
      }
      case GroupElement::Kind::kUnion: {
        AlgebraPtr u = translate_pattern(el.groups[0]);
        for (std::size_t i = 1; i < el.groups.size(); ++i) {
          u = Algebra::make_union(u, translate_pattern(el.groups[i]));
        }
        acc = Algebra::make_join(acc, u);
        break;
      }
      case GroupElement::Kind::kGroup:
        acc = Algebra::make_join(acc, translate_pattern(el.groups[0]));
        break;
    }
  }

  for (const ExprPtr& f : filters) {
    if (acc->kind == AlgebraKind::kFilter) {
      // Merge multiple FILTERs of one group into a conjunction.
      acc = Algebra::make_filter(
          Expr::binary(ExprKind::kAnd, acc->expr, f), acc->left);
    } else {
      acc = Algebra::make_filter(f, acc);
    }
  }
  return acc;
}

}  // namespace ahsw::sparql
