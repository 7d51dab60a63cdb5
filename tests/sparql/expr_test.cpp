#include "sparql/expr.hpp"

#include <gtest/gtest.h>

namespace ahsw::sparql {
namespace {

using rdf::Term;

Binding person_binding() {
  Binding b;
  b.set("name", Term::literal("John Smith"));
  b.set("age", Term::integer(30));
  b.set("home", Term::iri("http://example.org/home"));
  b.set("node", Term::blank("b0"));
  b.set("greet", Term::lang_literal("hello", "en"));
  return b;
}

ExprPtr lit(const std::string& s) {
  return Expr::constant_term(Term::literal(s));
}
ExprPtr num(long long v) { return Expr::constant_term(Term::integer(v)); }

TEST(Expr, VariableLookup) {
  ExprValue v = evaluate(*Expr::variable("age"), person_binding());
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, Term::integer(30));
}

TEST(Expr, UnboundVariableIsError) {
  EXPECT_FALSE(evaluate(*Expr::variable("nope"), person_binding()).has_value());
  EXPECT_FALSE(satisfies(*Expr::variable("nope"), person_binding()));
}

TEST(Expr, RegexMatchesSubstring) {
  ExprPtr e = Expr::regex(Expr::variable("name"), lit("Smith"));
  EXPECT_TRUE(satisfies(*e, person_binding()));
  EXPECT_FALSE(
      satisfies(*Expr::regex(Expr::variable("name"), lit("Jones")),
                person_binding()));
}

TEST(Expr, RegexCaseInsensitiveFlag) {
  ExprPtr no_flag = Expr::regex(Expr::variable("name"), lit("smith"));
  ExprPtr with_flag =
      Expr::regex(Expr::variable("name"), lit("smith"), lit("i"));
  EXPECT_FALSE(satisfies(*no_flag, person_binding()));
  EXPECT_TRUE(satisfies(*with_flag, person_binding()));
}

TEST(Expr, RegexAnchorsAndClasses) {
  ExprPtr e = Expr::regex(Expr::variable("name"), lit("^John\\s+S"));
  EXPECT_TRUE(satisfies(*e, person_binding()));
}

TEST(Expr, RegexOnNonLiteralIsError) {
  ExprPtr e = Expr::regex(Expr::variable("home"), lit("example"));
  EXPECT_FALSE(satisfies(*e, person_binding()));
}

TEST(Expr, InvalidRegexIsErrorNotThrow) {
  ExprPtr e = Expr::regex(Expr::variable("name"), lit("(unclosed"));
  EXPECT_FALSE(satisfies(*e, person_binding()));
}

TEST(Expr, ConstantRegexIsCompiledOnceAtConstruction) {
  ExprPtr e = Expr::regex(Expr::variable("name"), lit("Smi.h"));
  ASSERT_TRUE(e->constant_pattern);
  ASSERT_NE(e->compiled, nullptr);
  const std::regex* compiled = e->compiled.get();
  EXPECT_TRUE(satisfies(*e, person_binding()));
  Binding other;
  other.set("name", Term::literal("Jane Doe"));
  EXPECT_FALSE(satisfies(*e, other));
  EXPECT_EQ(e->compiled.get(), compiled);  // evaluation reuses it
}

TEST(Expr, ConstantRegexHonoursTheIFlag) {
  ExprPtr with_flag =
      Expr::regex(Expr::variable("name"), lit("JOHN"), lit("i"));
  ExprPtr other_flags =
      Expr::regex(Expr::variable("name"), lit("JOHN"), lit("s"));
  ASSERT_TRUE(with_flag->constant_pattern);
  ASSERT_TRUE(other_flags->constant_pattern);
  EXPECT_TRUE(satisfies(*with_flag, person_binding()));
  EXPECT_FALSE(satisfies(*other_flags, person_binding()));
}

TEST(Expr, InvalidConstantRegexFiltersFalseOnEveryRow) {
  ExprPtr e = Expr::regex(Expr::variable("name"), lit("[unclosed"));
  ASSERT_TRUE(e->constant_pattern);
  EXPECT_EQ(e->compiled, nullptr);
  EXPECT_FALSE(evaluate(*e, person_binding()).has_value());
  Binding b;
  b.set("name", Term::literal("[unclosed"));
  EXPECT_FALSE(satisfies(*e, b));
}

TEST(Expr, VariableRegexPatternCompilesPerRow) {
  ExprPtr e = Expr::regex(Expr::variable("name"), Expr::variable("pat"),
                          Expr::variable("flags"));
  EXPECT_FALSE(e->constant_pattern);
  EXPECT_EQ(e->compiled, nullptr);
  Binding b = person_binding();
  b.set("pat", Term::literal("smith"));
  EXPECT_FALSE(satisfies(*e, b));
  b.set("flags", Term::literal("i"));
  EXPECT_TRUE(satisfies(*e, b));
  b.set("pat", Term::literal("(bad"));
  EXPECT_FALSE(evaluate(*e, b).has_value());
  Binding unbound = person_binding();  // no ?pat: the error value
  EXPECT_FALSE(evaluate(*e, unbound).has_value());
}

TEST(Expr, NumericComparisons) {
  Binding b = person_binding();
  EXPECT_TRUE(satisfies(
      *Expr::binary(ExprKind::kGt, Expr::variable("age"), num(18)), b));
  EXPECT_FALSE(satisfies(
      *Expr::binary(ExprKind::kLt, Expr::variable("age"), num(18)), b));
  EXPECT_TRUE(satisfies(
      *Expr::binary(ExprKind::kLe, Expr::variable("age"), num(30)), b));
  EXPECT_TRUE(satisfies(
      *Expr::binary(ExprKind::kGe, Expr::variable("age"), num(30)), b));
}

TEST(Expr, EqualityOnTermsAndNumbers) {
  Binding b = person_binding();
  // Numerically equal across datatypes.
  ExprPtr int_vs_plain = Expr::binary(
      ExprKind::kEq, num(30), Expr::constant_term(Term::literal("30")));
  EXPECT_TRUE(satisfies(*int_vs_plain, b));
  EXPECT_TRUE(satisfies(
      *Expr::binary(ExprKind::kNe, Expr::variable("age"), num(31)), b));
  EXPECT_TRUE(satisfies(
      *Expr::binary(ExprKind::kEq, Expr::variable("home"),
                    Expr::constant_term(Term::iri("http://example.org/home"))),
      b));
}

TEST(Expr, ArithmeticEvaluates) {
  Binding b = person_binding();
  // age * 2 - 10 = 50
  ExprPtr e = Expr::binary(
      ExprKind::kSub,
      Expr::binary(ExprKind::kMul, Expr::variable("age"), num(2)), num(10));
  ExprValue v = evaluate(*e, b);
  ASSERT_TRUE(v.has_value());
  double d = 0;
  ASSERT_TRUE(v->numeric_value(d));
  EXPECT_DOUBLE_EQ(d, 50.0);
}

TEST(Expr, DivisionByZeroIsError) {
  ExprPtr e = Expr::binary(ExprKind::kDiv, num(1), num(0));
  EXPECT_FALSE(evaluate(*e, Binding{}).has_value());
}

TEST(Expr, NegationOfNumber) {
  ExprPtr e = Expr::unary(ExprKind::kNeg, num(5));
  double d = 0;
  ASSERT_TRUE(evaluate(*e, Binding{})->numeric_value(d));
  EXPECT_DOUBLE_EQ(d, -5.0);
}

TEST(Expr, NotFlipsEbv) {
  ExprPtr truthy = lit("nonempty");
  EXPECT_TRUE(satisfies(*truthy, Binding{}));
  EXPECT_FALSE(satisfies(*Expr::unary(ExprKind::kNot, truthy), Binding{}));
}

TEST(Expr, EmptyStringIsFalseEbv) {
  EXPECT_FALSE(satisfies(*lit(""), Binding{}));
}

TEST(Expr, ThreeValuedOr) {
  ExprPtr err = Expr::variable("unbound");
  ExprPtr t = lit("x");
  ExprPtr f = lit("");
  // true || error = true
  EXPECT_TRUE(satisfies(*Expr::binary(ExprKind::kOr, t, err), Binding{}));
  EXPECT_TRUE(satisfies(*Expr::binary(ExprKind::kOr, err, t), Binding{}));
  // false || error = error -> filter false
  EXPECT_FALSE(satisfies(*Expr::binary(ExprKind::kOr, f, err), Binding{}));
}

TEST(Expr, ThreeValuedAnd) {
  ExprPtr err = Expr::variable("unbound");
  ExprPtr t = lit("x");
  ExprPtr f = lit("");
  // false && error = false (not error)
  ExprValue v = evaluate(*Expr::binary(ExprKind::kAnd, f, err), Binding{});
  ASSERT_TRUE(v.has_value());
  EXPECT_FALSE(satisfies(*Expr::binary(ExprKind::kAnd, f, err), Binding{}));
  // true && error = error
  EXPECT_FALSE(evaluate(*Expr::binary(ExprKind::kAnd, t, err), Binding{})
                   .has_value());
}

TEST(Expr, BoundChecksBinding) {
  Binding b = person_binding();
  EXPECT_TRUE(satisfies(*Expr::bound("age"), b));
  EXPECT_FALSE(satisfies(*Expr::bound("missing"), b));
}

TEST(Expr, TypeCheckFunctions) {
  Binding b = person_binding();
  EXPECT_TRUE(satisfies(*Expr::unary(ExprKind::kIsIri, Expr::variable("home")), b));
  EXPECT_FALSE(satisfies(*Expr::unary(ExprKind::kIsIri, Expr::variable("name")), b));
  EXPECT_TRUE(
      satisfies(*Expr::unary(ExprKind::kIsLiteral, Expr::variable("name")), b));
  EXPECT_TRUE(
      satisfies(*Expr::unary(ExprKind::kIsBlank, Expr::variable("node")), b));
  EXPECT_FALSE(
      satisfies(*Expr::unary(ExprKind::kIsBlank, Expr::variable("home")), b));
}

TEST(Expr, StrLangDatatypeAccessors) {
  Binding b = person_binding();
  EXPECT_EQ(*evaluate(*Expr::unary(ExprKind::kStr, Expr::variable("home")), b),
            Term::literal("http://example.org/home"));
  EXPECT_EQ(*evaluate(*Expr::unary(ExprKind::kLang, Expr::variable("greet")), b),
            Term::literal("en"));
  EXPECT_EQ(
      *evaluate(*Expr::unary(ExprKind::kDatatype, Expr::variable("age")), b),
      Term::iri(std::string(rdf::xsd::kInteger)));
  // Plain literal datatype is xsd:string.
  EXPECT_EQ(
      *evaluate(*Expr::unary(ExprKind::kDatatype, Expr::variable("name")), b),
      Term::iri(std::string(rdf::xsd::kString)));
}

TEST(Expr, StrOfBlankIsError) {
  EXPECT_FALSE(
      evaluate(*Expr::unary(ExprKind::kStr, Expr::variable("node")),
               person_binding())
          .has_value());
}

TEST(Expr, ToStringRendersReadably) {
  ExprPtr e = Expr::binary(
      ExprKind::kAnd, Expr::regex(Expr::variable("name"), lit("Smith")),
      Expr::binary(ExprKind::kGt, Expr::variable("age"), num(18)));
  EXPECT_EQ(e->to_string(),
            "(regex(?name, \"Smith\") && (?age > "
            "\"18\"^^<http://www.w3.org/2001/XMLSchema#integer>))");
}

TEST(Expr, VariablesOfWalksWholeTree) {
  ExprPtr e = Expr::binary(
      ExprKind::kOr, Expr::bound("a"),
      Expr::binary(ExprKind::kLt, Expr::variable("b"), Expr::variable("c")));
  std::set<std::string> vars = variables_of(*e);
  EXPECT_EQ(vars, (std::set<std::string>{"a", "b", "c"}));
}

TEST(Expr, ByteSizeIsPositiveAndGrows) {
  ExprPtr small = Expr::variable("x");
  ExprPtr big = Expr::regex(Expr::variable("x"), lit("longpattern"));
  EXPECT_LT(small->byte_size(), big->byte_size());
}

}  // namespace
}  // namespace ahsw::sparql
