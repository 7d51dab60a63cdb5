#include <map>
#include <set>
#include <string>

#include "sparql/ast.hpp"
#include "sparql/lexer.hpp"

namespace ahsw::sparql {

namespace {

constexpr std::string_view kRdfType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::string_view text) : tokens_(tokenize(text)) {}

  Query run() {
    parse_prologue();
    Query q;
    const Token& t = peek();
    if (is_keyword("SELECT")) {
      parse_select(q);
    } else if (is_keyword("ASK")) {
      parse_ask(q);
    } else if (is_keyword("CONSTRUCT")) {
      parse_construct(q);
    } else if (is_keyword("DESCRIBE")) {
      parse_describe(q);
    } else {
      fail(t, "expected SELECT, ASK, CONSTRUCT or DESCRIBE");
    }
    parse_solution_modifiers(q);
    if (peek().kind != TokenKind::kEnd) fail(peek(), "trailing input");
    return q;
  }

 private:
  // --- token plumbing ----------------------------------------------------

  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const {
    std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  const Token& take() {
    const Token& t = peek();
    if (t.kind != TokenKind::kEnd) ++pos_;
    return t;
  }

  [[nodiscard]] bool is_keyword(std::string_view kw,
                                std::size_t ahead = 0) const {
    const Token& t = peek(ahead);
    return t.kind == TokenKind::kKeyword && t.text == kw;
  }

  bool accept_keyword(std::string_view kw) {
    if (!is_keyword(kw)) return false;
    take();
    return true;
  }

  void expect_keyword(std::string_view kw) {
    if (!accept_keyword(kw)) {
      fail(peek(), "expected keyword " + std::string(kw));
    }
  }

  bool accept(TokenKind kind) {
    if (peek().kind != kind) return false;
    take();
    return true;
  }

  const Token& expect(TokenKind kind, const std::string& what) {
    if (peek().kind != kind) fail(peek(), "expected " + what);
    return take();
  }

  [[noreturn]] static void fail(const Token& t, const std::string& what) {
    throw QuerySyntaxError(t.line, t.column, what);
  }

  /// Deepest nesting of group patterns and expression levels accepted. The
  /// descent recurses once per level, so without a bound a hostile query
  /// (tens of thousands of nested `{` or `!(`) overflows the stack instead
  /// of failing with a syntax error.
  static constexpr int kMaxNesting = 256;

  /// Counts one recursive production for as long as it is being parsed.
  class NestingGuard {
   public:
    explicit NestingGuard(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxNesting) {
        fail(p_.peek(), "nesting deeper than " + std::to_string(kMaxNesting) +
                            " levels");
      }
    }
    ~NestingGuard() { --p_.depth_; }
    NestingGuard(const NestingGuard&) = delete;
    NestingGuard& operator=(const NestingGuard&) = delete;

   private:
    Parser& p_;
  };

  // --- prologue -----------------------------------------------------------

  void parse_prologue() {
    while (true) {
      if (accept_keyword("PREFIX")) {
        const Token& name = expect(TokenKind::kPName, "prefix name");
        std::string prefix = name.text;
        // The lexer keeps "p:" + local; a prefix declaration has empty local.
        auto colon = prefix.find(':');
        if (colon == std::string::npos) fail(name, "expected 'prefix:'");
        std::string key = prefix.substr(0, colon);
        if (colon + 1 != prefix.size()) {
          fail(name, "prefix declaration must end with ':'");
        }
        const Token& iri = expect(TokenKind::kIriRef, "IRI");
        prefixes_[key] = iri.text;
      } else if (accept_keyword("BASE")) {
        base_ = expect(TokenKind::kIriRef, "IRI").text;
      } else {
        return;
      }
    }
  }

  // --- query forms ----------------------------------------------------------

  void parse_select(Query& q) {
    expect_keyword("SELECT");
    q.form = QueryForm::kSelect;
    if (accept_keyword("DISTINCT")) q.distinct = true;
    else if (accept_keyword("REDUCED")) q.reduced = true;
    if (accept(TokenKind::kStar)) {
      q.select_all = true;
    } else {
      while (peek().kind == TokenKind::kVar) {
        q.select_vars.push_back(take().text);
      }
      if (q.select_vars.empty()) {
        fail(peek(), "expected projection variables or '*'");
      }
    }
    parse_dataset_clauses(q);
    parse_where(q);
  }

  void parse_ask(Query& q) {
    expect_keyword("ASK");
    q.form = QueryForm::kAsk;
    parse_dataset_clauses(q);
    // WHERE keyword optional for ASK.
    accept_keyword("WHERE");
    q.where = parse_group();
  }

  void parse_construct(Query& q) {
    expect_keyword("CONSTRUCT");
    q.form = QueryForm::kConstruct;
    expect(TokenKind::kLBrace, "'{'");
    while (peek().kind != TokenKind::kRBrace) {
      parse_triples_same_subject(q.construct_template);
      if (!accept(TokenKind::kDot)) break;
    }
    expect(TokenKind::kRBrace, "'}'");
    parse_dataset_clauses(q);
    parse_where(q);
  }

  void parse_describe(Query& q) {
    expect_keyword("DESCRIBE");
    q.form = QueryForm::kDescribe;
    if (accept(TokenKind::kStar)) {
      q.select_all = true;
    } else {
      while (true) {
        const Token& t = peek();
        if (t.kind == TokenKind::kVar) {
          q.describe_targets.push_back(rdf::Variable{take().text});
        } else if (t.kind == TokenKind::kIriRef ||
                   t.kind == TokenKind::kPName) {
          q.describe_targets.push_back(parse_iri());
        } else {
          break;
        }
      }
      if (q.describe_targets.empty()) {
        fail(peek(), "expected DESCRIBE targets or '*'");
      }
    }
    parse_dataset_clauses(q);
    if (is_keyword("WHERE") || peek().kind == TokenKind::kLBrace) {
      parse_where(q);
    }
  }

  void parse_dataset_clauses(Query& q) {
    while (accept_keyword("FROM")) {
      if (accept_keyword("NAMED")) {
        q.from_named.push_back(expect(TokenKind::kIriRef, "IRI").text);
      } else {
        q.from.push_back(expect(TokenKind::kIriRef, "IRI").text);
      }
    }
  }

  void parse_where(Query& q) {
    accept_keyword("WHERE");
    q.where = parse_group();
  }

  // --- graph patterns --------------------------------------------------------

  GroupPattern parse_group() {
    NestingGuard guard(*this);
    expect(TokenKind::kLBrace, "'{'");
    GroupPattern group;
    while (peek().kind != TokenKind::kRBrace) {
      if (is_keyword("FILTER")) {
        take();
        GroupElement el;
        el.kind = GroupElement::Kind::kFilter;
        el.filter = parse_bracketed_or_builtin_expr();
        group.elements.push_back(std::move(el));
        accept(TokenKind::kDot);
      } else if (is_keyword("OPTIONAL")) {
        take();
        GroupElement el;
        el.kind = GroupElement::Kind::kOptional;
        el.groups.push_back(parse_group());
        group.elements.push_back(std::move(el));
        accept(TokenKind::kDot);
      } else if (peek().kind == TokenKind::kLBrace) {
        // Sub-group, possibly a UNION chain.
        GroupElement el;
        el.groups.push_back(parse_group());
        if (is_keyword("UNION")) {
          el.kind = GroupElement::Kind::kUnion;
          while (accept_keyword("UNION")) {
            el.groups.push_back(parse_group());
          }
        } else {
          el.kind = GroupElement::Kind::kGroup;
        }
        group.elements.push_back(std::move(el));
        accept(TokenKind::kDot);
      } else {
        std::vector<rdf::TriplePattern> triples;
        parse_triples_same_subject(triples);
        for (rdf::TriplePattern& tp : triples) {
          GroupElement el;
          el.kind = GroupElement::Kind::kTriple;
          el.triple = std::move(tp);
          group.elements.push_back(std::move(el));
        }
        if (!accept(TokenKind::kDot)) {
          // A triples block may also end right before '}' / FILTER /
          // OPTIONAL / '{'.
          if (peek().kind != TokenKind::kRBrace && !is_keyword("FILTER") &&
              !is_keyword("OPTIONAL") && peek().kind != TokenKind::kLBrace) {
            fail(peek(), "expected '.' or '}'");
          }
        }
      }
    }
    expect(TokenKind::kRBrace, "'}'");
    return group;
  }

  /// subject predicate object (',' object)* (';' predicate object...)*
  void parse_triples_same_subject(std::vector<rdf::TriplePattern>& out) {
    rdf::PatternTerm subject = parse_pattern_term(/*allow_literal=*/false);
    while (true) {
      rdf::PatternTerm predicate = parse_verb();
      while (true) {
        rdf::PatternTerm object = parse_pattern_term(/*allow_literal=*/true);
        out.push_back(rdf::TriplePattern{subject, predicate, object});
        if (!accept(TokenKind::kComma)) break;
      }
      if (!accept(TokenKind::kSemicolon)) break;
      if (peek().kind == TokenKind::kRBrace ||
          peek().kind == TokenKind::kDot) {
        break;  // dangling ';' is permitted
      }
    }
  }

  rdf::PatternTerm parse_verb() {
    if (peek().kind == TokenKind::kPName && peek().text == "a") {
      take();
      return rdf::Term::iri(std::string(kRdfType));
    }
    return parse_pattern_term(/*allow_literal=*/false);
  }

  rdf::Term parse_iri() {
    const Token& t = take();
    if (t.kind == TokenKind::kIriRef) return rdf::Term::iri(t.text);
    if (t.kind == TokenKind::kPName) return expand_pname(t);
    fail(t, "expected IRI");
  }

  rdf::Term expand_pname(const Token& t) {
    auto colon = t.text.find(':');
    if (colon == std::string::npos) {
      fail(t, "expected prefixed name, got bare identifier '" + t.text + "'");
    }
    std::string prefix = t.text.substr(0, colon);
    std::string local = t.text.substr(colon + 1);
    auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      fail(t, "undeclared prefix '" + prefix + ":'");
    }
    return rdf::Term::iri(it->second + local);
  }

  rdf::PatternTerm parse_pattern_term(bool allow_literal) {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::kVar:
        return rdf::Variable{take().text};
      case TokenKind::kIriRef:
        return rdf::Term::iri(take().text);
      case TokenKind::kPName:
        return expand_pname(take());
      case TokenKind::kBlank:
        // Blank-node labels in query patterns are non-distinguished
        // variables (SPARQL spec 4.1.4), scoped to the query: same label =
        // same variable. The "_:" prefix keeps them apart from user
        // variables and out of SELECT * projections.
        return rdf::Variable{"_:" + take().text};
      case TokenKind::kString:
        if (!allow_literal) fail(t, "literal not allowed here");
        return parse_literal();
      case TokenKind::kInteger:
        if (!allow_literal) fail(t, "literal not allowed here");
        return rdf::Term::typed_literal(take().text,
                                        std::string(rdf::xsd::kInteger));
      case TokenKind::kDecimal:
        if (!allow_literal) fail(t, "literal not allowed here");
        return rdf::Term::typed_literal(take().text,
                                        std::string(rdf::xsd::kDouble));
      case TokenKind::kKeyword:
        if (allow_literal && (t.text == "TRUE" || t.text == "FALSE")) {
          bool v = take().text == "TRUE";
          return rdf::Term::typed_literal(v ? "true" : "false",
                                          std::string(rdf::xsd::kBoolean));
        }
        [[fallthrough]];
      default:
        fail(t, "expected term or variable");
    }
  }

  rdf::Term parse_literal() {
    std::string value = take().text;  // kString
    if (peek().kind == TokenKind::kLangTag) {
      return rdf::Term::lang_literal(std::move(value), take().text);
    }
    if (accept(TokenKind::kDoubleCaret)) {
      rdf::Term dt = parse_iri();
      return rdf::Term::typed_literal(std::move(value), dt.lexical());
    }
    return rdf::Term::literal(std::move(value));
  }

  // --- expressions ---------------------------------------------------------

  ExprPtr parse_bracketed_or_builtin_expr() {
    if (peek().kind == TokenKind::kLParen) {
      take();
      ExprPtr e = parse_expr();
      expect(TokenKind::kRParen, "')'");
      return e;
    }
    return parse_primary_expr();
  }

  ExprPtr parse_expr() { return parse_or(); }

  ExprPtr parse_or() {
    NestingGuard guard(*this);
    ExprPtr e = parse_and();
    while (accept(TokenKind::kOrOr)) {
      e = Expr::binary(ExprKind::kOr, e, parse_and());
    }
    return e;
  }

  ExprPtr parse_and() {
    ExprPtr e = parse_relational();
    while (accept(TokenKind::kAndAnd)) {
      e = Expr::binary(ExprKind::kAnd, e, parse_relational());
    }
    return e;
  }

  ExprPtr parse_relational() {
    ExprPtr e = parse_additive();
    switch (peek().kind) {
      case TokenKind::kEq: take(); return Expr::binary(ExprKind::kEq, e, parse_additive());
      case TokenKind::kNe: take(); return Expr::binary(ExprKind::kNe, e, parse_additive());
      case TokenKind::kLt: take(); return Expr::binary(ExprKind::kLt, e, parse_additive());
      case TokenKind::kGt: take(); return Expr::binary(ExprKind::kGt, e, parse_additive());
      case TokenKind::kLe: take(); return Expr::binary(ExprKind::kLe, e, parse_additive());
      case TokenKind::kGe: take(); return Expr::binary(ExprKind::kGe, e, parse_additive());
      default: return e;
    }
  }

  ExprPtr parse_additive() {
    ExprPtr e = parse_multiplicative();
    while (true) {
      if (accept(TokenKind::kPlus)) {
        e = Expr::binary(ExprKind::kAdd, e, parse_multiplicative());
      } else if (accept(TokenKind::kMinus)) {
        e = Expr::binary(ExprKind::kSub, e, parse_multiplicative());
      } else {
        return e;
      }
    }
  }

  ExprPtr parse_multiplicative() {
    ExprPtr e = parse_unary();
    while (true) {
      if (accept(TokenKind::kStar)) {
        e = Expr::binary(ExprKind::kMul, e, parse_unary());
      } else if (accept(TokenKind::kSlash)) {
        e = Expr::binary(ExprKind::kDiv, e, parse_unary());
      } else {
        return e;
      }
    }
  }

  ExprPtr parse_unary() {
    NestingGuard guard(*this);
    if (accept(TokenKind::kBang)) {
      return Expr::unary(ExprKind::kNot, parse_unary());
    }
    if (accept(TokenKind::kMinus)) {
      return Expr::unary(ExprKind::kNeg, parse_unary());
    }
    if (accept(TokenKind::kPlus)) {
      return parse_unary();
    }
    return parse_primary_expr();
  }

  ExprPtr parse_primary_expr() {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::kLParen: {
        take();
        ExprPtr e = parse_expr();
        expect(TokenKind::kRParen, "')'");
        return e;
      }
      case TokenKind::kVar:
        return Expr::variable(take().text);
      case TokenKind::kIriRef:
        return Expr::constant_term(rdf::Term::iri(take().text));
      case TokenKind::kPName:
        return Expr::constant_term(expand_pname(take()));
      case TokenKind::kString:
        return Expr::constant_term(parse_literal());
      case TokenKind::kInteger:
        return Expr::constant_term(rdf::Term::typed_literal(
            take().text, std::string(rdf::xsd::kInteger)));
      case TokenKind::kDecimal:
        return Expr::constant_term(rdf::Term::typed_literal(
            take().text, std::string(rdf::xsd::kDouble)));
      case TokenKind::kKeyword:
        return parse_builtin_call();
      default:
        fail(t, "expected expression");
    }
  }

  ExprPtr parse_builtin_call() {
    const Token& kw = take();
    auto unary_fn = [&](ExprKind k) {
      expect(TokenKind::kLParen, "'('");
      ExprPtr a = parse_expr();
      expect(TokenKind::kRParen, "')'");
      return Expr::unary(k, a);
    };
    if (kw.text == "TRUE" || kw.text == "FALSE") {
      return Expr::constant_term(rdf::Term::typed_literal(
          kw.text == "TRUE" ? "true" : "false",
          std::string(rdf::xsd::kBoolean)));
    }
    if (kw.text == "REGEX") {
      expect(TokenKind::kLParen, "'('");
      ExprPtr text = parse_expr();
      expect(TokenKind::kComma, "','");
      ExprPtr pattern = parse_expr();
      ExprPtr flags;
      if (accept(TokenKind::kComma)) flags = parse_expr();
      expect(TokenKind::kRParen, "')'");
      return Expr::regex(text, pattern, flags);
    }
    if (kw.text == "BOUND") {
      expect(TokenKind::kLParen, "'('");
      const Token& v = expect(TokenKind::kVar, "variable");
      std::string name = v.text;
      expect(TokenKind::kRParen, "')'");
      return Expr::bound(std::move(name));
    }
    if (kw.text == "ISIRI" || kw.text == "ISURI")
      return unary_fn(ExprKind::kIsIri);
    if (kw.text == "ISLITERAL") return unary_fn(ExprKind::kIsLiteral);
    if (kw.text == "ISBLANK") return unary_fn(ExprKind::kIsBlank);
    if (kw.text == "STR") return unary_fn(ExprKind::kStr);
    if (kw.text == "LANG") return unary_fn(ExprKind::kLang);
    if (kw.text == "DATATYPE") return unary_fn(ExprKind::kDatatype);
    fail(kw, "unexpected keyword '" + kw.text + "' in expression");
  }

  // --- solution modifiers ----------------------------------------------------

  void parse_solution_modifiers(Query& q) {
    if (accept_keyword("ORDER")) {
      expect_keyword("BY");
      while (true) {
        const Token& t = peek();
        if (is_keyword("ASC") || is_keyword("DESC")) {
          bool asc = take().text == "ASC";
          expect(TokenKind::kLParen, "'('");
          ExprPtr e = parse_expr();
          expect(TokenKind::kRParen, "')'");
          q.order_by.push_back({e, asc});
        } else if (t.kind == TokenKind::kVar) {
          q.order_by.push_back({Expr::variable(take().text), true});
        } else {
          break;
        }
      }
      if (q.order_by.empty()) fail(peek(), "expected ORDER BY conditions");
    }
    while (true) {
      if (accept_keyword("LIMIT")) {
        q.limit = std::stoull(expect(TokenKind::kInteger, "integer").text);
      } else if (accept_keyword("OFFSET")) {
        q.offset = std::stoull(expect(TokenKind::kInteger, "integer").text);
      } else {
        break;
      }
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open NestingGuards
  std::map<std::string, std::string> prefixes_;
  std::string base_;
};

void collect_pattern_vars(const GroupPattern& g, std::set<std::string>& out) {
  auto add_pt = [&](const rdf::PatternTerm& pt) {
    if (const rdf::Variable* v = rdf::var_of(pt)) out.insert(v->name);
  };
  for (const GroupElement& el : g.elements) {
    switch (el.kind) {
      case GroupElement::Kind::kTriple:
        add_pt(el.triple.s);
        add_pt(el.triple.p);
        add_pt(el.triple.o);
        break;
      case GroupElement::Kind::kFilter:
        collect_variables(*el.filter, out);
        break;
      default:
        for (const GroupPattern& sub : el.groups) {
          collect_pattern_vars(sub, out);
        }
    }
  }
}

}  // namespace

std::vector<std::string> Query::pattern_variables() const {
  std::set<std::string> vars;
  collect_pattern_vars(where, vars);
  std::vector<std::string> out;
  for (const std::string& v : vars) {
    // Non-distinguished (blank-node) variables never project.
    if (v.rfind("_:", 0) != 0) out.push_back(v);
  }
  return out;
}

Query parse_query(std::string_view text) { return Parser(text).run(); }

}  // namespace ahsw::sparql
