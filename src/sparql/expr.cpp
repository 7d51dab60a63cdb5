#include "sparql/expr.hpp"

#include <cmath>
#include <regex>

namespace ahsw::sparql {

ExprPtr Expr::variable(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kVar;
  e->var = std::move(name);
  return e;
}

ExprPtr Expr::constant_term(rdf::Term t) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kConst;
  e->constant = std::move(t);
  return e;
}

ExprPtr Expr::unary(ExprKind k, ExprPtr a) {
  auto e = std::make_shared<Expr>();
  e->kind = k;
  e->args = {std::move(a)};
  return e;
}

ExprPtr Expr::binary(ExprKind k, ExprPtr a, ExprPtr b) {
  auto e = std::make_shared<Expr>();
  e->kind = k;
  e->args = {std::move(a), std::move(b)};
  return e;
}

namespace {

/// The ECMAScript flags a regex() flags argument selects: `i` ignores case.
std::regex::flag_type regex_flags(const std::optional<rdf::Term>& f) {
  auto flags = std::regex::ECMAScript;
  if (f && f->is_literal() && f->lexical().find('i') != std::string::npos) {
    flags |= std::regex::icase;
  }
  return flags;
}

/// `pattern` compiled, or null when it is not a valid pattern.
std::shared_ptr<const std::regex> compile_regex(const std::string& pattern,
                                                std::regex::flag_type flags) {
  try {
    return std::make_shared<const std::regex>(pattern, flags);
  } catch (const std::regex_error&) {
    return nullptr;
  }
}

}  // namespace

ExprPtr Expr::regex(ExprPtr text, ExprPtr pattern, ExprPtr flags) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kRegex;
  if (pattern->kind == ExprKind::kConst && pattern->constant.is_literal() &&
      (flags == nullptr || flags->kind == ExprKind::kConst)) {
    e->constant_pattern = true;
    e->compiled = compile_regex(
        pattern->constant.lexical(),
        regex_flags(flags != nullptr ? std::optional(flags->constant)
                                     : std::nullopt));
  }
  e->args = {std::move(text), std::move(pattern)};
  if (flags != nullptr) e->args.push_back(std::move(flags));
  return e;
}

ExprPtr Expr::bound(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBound;
  e->var = std::move(name);
  return e;
}

namespace {

[[nodiscard]] const char* op_token(ExprKind k) {
  switch (k) {
    case ExprKind::kOr: return " || ";
    case ExprKind::kAnd: return " && ";
    case ExprKind::kEq: return " = ";
    case ExprKind::kNe: return " != ";
    case ExprKind::kLt: return " < ";
    case ExprKind::kGt: return " > ";
    case ExprKind::kLe: return " <= ";
    case ExprKind::kGe: return " >= ";
    case ExprKind::kAdd: return " + ";
    case ExprKind::kSub: return " - ";
    case ExprKind::kMul: return " * ";
    case ExprKind::kDiv: return " / ";
    default: return " ? ";
  }
}

[[nodiscard]] std::string fn_name(ExprKind k) {
  switch (k) {
    case ExprKind::kIsIri: return "isIRI";
    case ExprKind::kIsLiteral: return "isLiteral";
    case ExprKind::kIsBlank: return "isBlank";
    case ExprKind::kStr: return "str";
    case ExprKind::kLang: return "lang";
    case ExprKind::kDatatype: return "datatype";
    default: return "?";
  }
}

}  // namespace

std::string Expr::to_string() const {
  switch (kind) {
    case ExprKind::kVar:
      return "?" + var;
    case ExprKind::kConst:
      return constant.to_string();
    case ExprKind::kNot:
      return "!(" + args[0]->to_string() + ")";
    case ExprKind::kNeg:
      return "-(" + args[0]->to_string() + ")";
    case ExprKind::kBound:
      return "bound(?" + var + ")";
    case ExprKind::kRegex: {
      std::string out = "regex(" + args[0]->to_string() + ", " +
                        args[1]->to_string();
      if (args.size() > 2) out += ", " + args[2]->to_string();
      return out + ")";
    }
    case ExprKind::kIsIri:
    case ExprKind::kIsLiteral:
    case ExprKind::kIsBlank:
    case ExprKind::kStr:
    case ExprKind::kLang:
    case ExprKind::kDatatype:
      return fn_name(kind) + "(" + args[0]->to_string() + ")";
    default:
      return "(" + args[0]->to_string() + op_token(kind) +
             args[1]->to_string() + ")";
  }
}

std::size_t Expr::byte_size() const noexcept {
  std::size_t n = 1 + var.size() + constant.byte_size();
  for (const ExprPtr& a : args) n += a->byte_size();
  return n;
}

namespace {

/// Effective boolean value per SPARQL sect. 11.2.2; nullopt = error.
[[nodiscard]] std::optional<bool> ebv(const rdf::Term& t) {
  if (!t.is_literal()) return std::nullopt;
  if (t.datatype() == rdf::xsd::kBoolean) {
    if (t.lexical() == "true" || t.lexical() == "1") return true;
    if (t.lexical() == "false" || t.lexical() == "0") return false;
    return std::nullopt;
  }
  double num = 0.0;
  if (!t.datatype().empty() && t.numeric_value(num)) {
    return num != 0.0 && !std::isnan(num);
  }
  if (t.datatype().empty() || t.datatype() == rdf::xsd::kString) {
    // Plain / string literal: true iff non-empty. A plain literal that
    // looks numeric still follows the string rule unless typed.
    return !t.lexical().empty();
  }
  return std::nullopt;
}

/// A comparison or regex verdict: a copy of one of two shared terms, so it
/// allocates nothing.
[[nodiscard]] rdf::Term bool_term(bool v) {
  static const rdf::Term kTrue =
      rdf::Term::typed_literal("true", std::string(rdf::xsd::kBoolean));
  static const rdf::Term kFalse =
      rdf::Term::typed_literal("false", std::string(rdf::xsd::kBoolean));
  return v ? kTrue : kFalse;
}

/// Three-valued comparison: <0, 0, >0, or nullopt on incomparable operands.
[[nodiscard]] std::optional<int> compare(const rdf::Term& a,
                                         const rdf::Term& b) {
  double na = 0.0, nb = 0.0;
  if (a.numeric_value(na) && b.numeric_value(nb)) {
    if (na < nb) return -1;
    if (na > nb) return 1;
    return 0;
  }
  if (a.is_literal() && b.is_literal() && a.datatype() == b.datatype() &&
      a.lang() == b.lang()) {
    return a.lexical().compare(b.lexical()) < 0
               ? -1
               : (a.lexical() == b.lexical() ? 0 : 1);
  }
  if (a.is_iri() && b.is_iri()) {
    // IRIs support = / != only; order comparisons are errors, but we can
    // still answer equality through this path.
    return a.lexical() == b.lexical() ? 0 : (a.lexical() < b.lexical() ? -1
                                                                       : 1);
  }
  return std::nullopt;
}

[[nodiscard]] std::optional<double> numeric(const ExprValue& v) {
  if (!v) return std::nullopt;
  double out = 0.0;
  if (!v->numeric_value(out)) return std::nullopt;
  return out;
}

}  // namespace

ExprValue evaluate(const Expr& e, const Binding& binding) {
  switch (e.kind) {
    case ExprKind::kVar: {
      const rdf::Term* t = binding.get(e.var);
      if (t == nullptr) return std::nullopt;
      return *t;
    }
    case ExprKind::kConst:
      return e.constant;
    case ExprKind::kBound:
      return bool_term(binding.bound(e.var));
    case ExprKind::kNot: {
      ExprValue v = evaluate(*e.args[0], binding);
      if (!v) return std::nullopt;
      std::optional<bool> b = ebv(*v);
      if (!b) return std::nullopt;
      return bool_term(!*b);
    }
    case ExprKind::kNeg: {
      std::optional<double> n = numeric(evaluate(*e.args[0], binding));
      if (!n) return std::nullopt;
      return rdf::Term::real(-*n);
    }
    case ExprKind::kOr:
    case ExprKind::kAnd: {
      // SPARQL three-valued logic: true||error = true, false&&error = false.
      std::optional<bool> la, lb;
      if (ExprValue v = evaluate(*e.args[0], binding)) la = ebv(*v);
      if (ExprValue v = evaluate(*e.args[1], binding)) lb = ebv(*v);
      if (e.kind == ExprKind::kOr) {
        if ((la && *la) || (lb && *lb)) return bool_term(true);
        if (la && lb) return bool_term(false);
        return std::nullopt;
      }
      if ((la && !*la) || (lb && !*lb)) return bool_term(false);
      if (la && lb) return bool_term(true);
      return std::nullopt;
    }
    case ExprKind::kEq:
    case ExprKind::kNe: {
      ExprValue a = evaluate(*e.args[0], binding);
      ExprValue b = evaluate(*e.args[1], binding);
      if (!a || !b) return std::nullopt;
      bool eq;
      if (std::optional<int> c = compare(*a, *b)) {
        eq = (*c == 0);
      } else {
        eq = (*a == *b);  // term equality fallback (RDFterm-equal)
      }
      return bool_term(e.kind == ExprKind::kEq ? eq : !eq);
    }
    case ExprKind::kLt:
    case ExprKind::kGt:
    case ExprKind::kLe:
    case ExprKind::kGe: {
      ExprValue a = evaluate(*e.args[0], binding);
      ExprValue b = evaluate(*e.args[1], binding);
      if (!a || !b) return std::nullopt;
      std::optional<int> c = compare(*a, *b);
      if (!c) return std::nullopt;
      switch (e.kind) {
        case ExprKind::kLt: return bool_term(*c < 0);
        case ExprKind::kGt: return bool_term(*c > 0);
        case ExprKind::kLe: return bool_term(*c <= 0);
        default: return bool_term(*c >= 0);
      }
    }
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul:
    case ExprKind::kDiv: {
      std::optional<double> a = numeric(evaluate(*e.args[0], binding));
      std::optional<double> b = numeric(evaluate(*e.args[1], binding));
      if (!a || !b) return std::nullopt;
      switch (e.kind) {
        case ExprKind::kAdd: return rdf::Term::real(*a + *b);
        case ExprKind::kSub: return rdf::Term::real(*a - *b);
        case ExprKind::kMul: return rdf::Term::real(*a * *b);
        default:
          if (*b == 0.0) return std::nullopt;
          return rdf::Term::real(*a / *b);
      }
    }
    case ExprKind::kRegex: {
      ExprValue text = evaluate(*e.args[0], binding);
      if (!text || !text->is_literal()) return std::nullopt;
      if (e.constant_pattern) {
        if (e.compiled == nullptr) return std::nullopt;
        return bool_term(std::regex_search(text->lexical(), *e.compiled));
      }
      ExprValue pattern = evaluate(*e.args[1], binding);
      if (!pattern || !pattern->is_literal()) return std::nullopt;
      const std::shared_ptr<const std::regex> re = compile_regex(
          pattern->lexical(), regex_flags(e.args.size() > 2
                                              ? evaluate(*e.args[2], binding)
                                              : std::nullopt));
      if (re == nullptr) return std::nullopt;
      return bool_term(std::regex_search(text->lexical(), *re));
    }
    case ExprKind::kIsIri: {
      ExprValue v = evaluate(*e.args[0], binding);
      if (!v) return std::nullopt;
      return bool_term(v->is_iri());
    }
    case ExprKind::kIsLiteral: {
      ExprValue v = evaluate(*e.args[0], binding);
      if (!v) return std::nullopt;
      return bool_term(v->is_literal());
    }
    case ExprKind::kIsBlank: {
      ExprValue v = evaluate(*e.args[0], binding);
      if (!v) return std::nullopt;
      return bool_term(v->is_blank());
    }
    case ExprKind::kStr: {
      ExprValue v = evaluate(*e.args[0], binding);
      if (!v || v->is_blank()) return std::nullopt;
      return rdf::Term::literal(v->lexical());
    }
    case ExprKind::kLang: {
      ExprValue v = evaluate(*e.args[0], binding);
      if (!v || !v->is_literal()) return std::nullopt;
      return rdf::Term::literal(v->lang());
    }
    case ExprKind::kDatatype: {
      ExprValue v = evaluate(*e.args[0], binding);
      if (!v || !v->is_literal()) return std::nullopt;
      if (!v->datatype().empty()) return rdf::Term::iri(v->datatype());
      return rdf::Term::iri(std::string(rdf::xsd::kString));
    }
  }
  return std::nullopt;
}

bool satisfies(const Expr& e, const Binding& binding) {
  ExprValue v = evaluate(e, binding);
  if (!v) return false;
  std::optional<bool> b = ebv(*v);
  return b.value_or(false);
}

void collect_variables(const Expr& e, std::set<std::string>& out) {
  if (e.kind == ExprKind::kVar || e.kind == ExprKind::kBound) {
    out.insert(e.var);
  }
  for (const ExprPtr& a : e.args) collect_variables(*a, out);
}

std::set<std::string> variables_of(const Expr& e) {
  std::set<std::string> out;
  collect_variables(e, out);
  return out;
}

}  // namespace ahsw::sparql
