#include "lint/graph.hpp"

#include <algorithm>
#include <deque>

namespace ahsw::lint {

namespace {

using Tokens = std::vector<Token>;

/// Keywords that look like calls (`if (...)`) or start declarations; never
/// function names or callees.
[[nodiscard]] bool is_keyword(std::string_view t) {
  static const std::set<std::string_view> kKeywords = {
      "if",       "for",      "while",     "switch",       "return",
      "sizeof",   "new",      "delete",    "catch",        "case",
      "do",       "else",     "goto",      "static_assert", "decltype",
      "alignof",  "alignas",  "typeid",    "throw",        "using",
      "typedef",  "co_await", "co_yield",  "co_return",    "requires",
      "noexcept", "operator", "constexpr", "const",        "static",
      "inline",   "virtual",  "explicit",  "friend",       "mutable",
      "template", "typename", "namespace", "class",        "struct",
      "union",    "enum",     "public",    "private",      "protected",
      "break",    "continue", "default",   "try",          "this",
      "auto",     "void",     "bool",      "char",         "int",
      "long",     "short",    "float",     "double",       "unsigned",
      "signed",
  };
  return kKeywords.count(t) > 0;
}

/// Forward scan from the opening bracket at `open` to its matching closer.
[[nodiscard]] std::size_t match_forward(const Tokens& toks, std::size_t open,
                                        std::string_view o,
                                        std::string_view c) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].is(o)) ++depth;
    if (toks[i].is(c) && --depth == 0) return i;
  }
  return toks.size();
}

/// Skip a template argument/parameter list starting at `<`. Tracks only
/// angle depth (with `>>` counting twice), which is enough for the
/// declaration positions this scanner meets angles in.
[[nodiscard]] std::size_t skip_angles(const Tokens& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (toks[i].is("<")) ++depth;
    if (toks[i].is(">") && --depth == 0) return i + 1;
    if (toks[i].is(">>")) {
      depth -= 2;
      if (depth <= 0) return i + 1;
    }
    if (toks[i].is(";")) return i;  // malformed / comparison; bail out
  }
  return i;
}

/// Extractor for one file. Walks the token stream once, maintaining a scope
/// stack (namespace / class / plain block), and records function
/// definitions, the call sites inside their bodies, and static variable
/// declarations.
class Extractor {
 public:
  Extractor(const SourceFile& file, SymbolTable* out)
      : f_(file), t_(file.tokens), out_(out) {}

  void run() {
    std::size_t i = 0;
    while (i < t_.size()) {
      i = step(i);
    }
  }

 private:
  struct Scope {
    enum class Kind : unsigned char { kNamespace, kClass, kBlock };
    Kind kind = Kind::kBlock;
    std::string name;  // class name for kClass
  };

  [[nodiscard]] std::string enclosing_class() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kClass) return it->name;
    }
    return "";
  }

  /// One step at declaration scope (namespace / class / file level).
  std::size_t step(std::size_t i) {
    const Token& tok = t_[i];
    if (tok.ident("template") && i + 1 < t_.size() && t_[i + 1].is("<")) {
      return skip_angles(t_, i + 1);
    }
    if (tok.ident("namespace")) return enter_namespace(i);
    if (tok.ident("class") || tok.ident("struct") || tok.ident("union")) {
      return enter_class(i);
    }
    if (tok.ident("enum")) return skip_enum(i);
    if (tok.ident("static") || tok.ident("inline")) {
      scan_static(i, /*local=*/false);
      // Fall through: the declaration may still be a function definition.
    }
    if (tok.kind == Token::Kind::kIdentifier && !is_keyword(tok.text) &&
        i + 1 < t_.size() && t_[i + 1].is("(")) {
      std::size_t next = try_function(i);
      if (next != i) return next;
    }
    if (tok.is("{")) {
      scopes_.push_back(Scope{Scope::Kind::kBlock, ""});
      return i + 1;
    }
    if (tok.is("}")) {
      if (!scopes_.empty()) scopes_.pop_back();
      return i + 1;
    }
    return i + 1;
  }

  std::size_t enter_namespace(std::size_t i) {
    ++i;  // 'namespace'
    while (i < t_.size() && !t_[i].is("{") && !t_[i].is(";") &&
           !t_[i].is("=")) {
      ++i;
    }
    if (i < t_.size() && t_[i].is("{")) {
      scopes_.push_back(Scope{Scope::Kind::kNamespace, ""});
      return i + 1;
    }
    return i + 1;  // alias or declaration
  }

  /// `class X : bases { ... }` — push a class scope at the '{'. Elaborated
  /// uses (`struct S s;`, `class X* p`, forward declarations) are skipped.
  std::size_t enter_class(std::size_t i) {
    ++i;  // 'class' / 'struct' / 'union'
    while (i < t_.size() && t_[i].ident("alignas")) {
      if (i + 1 < t_.size() && t_[i + 1].is("(")) {
        i = match_forward(t_, i + 1, "(", ")") + 1;
      } else {
        ++i;
      }
    }
    std::string name;
    if (i < t_.size() && t_[i].kind == Token::Kind::kIdentifier) {
      name = t_[i].text;
      ++i;
    }
    if (i < t_.size() && t_[i].ident("final")) ++i;
    if (i < t_.size() && t_[i].is(":")) {
      // Base-clause: scan to the '{' (template bases may nest angles).
      while (i < t_.size() && !t_[i].is("{") && !t_[i].is(";")) {
        if (t_[i].is("<")) {
          i = skip_angles(t_, i);
        } else {
          ++i;
        }
      }
    }
    if (i < t_.size() && t_[i].is("{")) {
      scopes_.push_back(Scope{Scope::Kind::kClass, name});
      return i + 1;
    }
    return i;  // not a definition
  }

  /// `enum [class] X [: type] { ... };` — the body is enumerator names, not
  /// declarations; skip it entirely.
  std::size_t skip_enum(std::size_t i) {
    while (i < t_.size() && !t_[i].is("{") && !t_[i].is(";")) ++i;
    if (i < t_.size() && t_[i].is("{")) {
      return match_forward(t_, i, "{", "}") + 1;
    }
    return i + 1;
  }

  /// Try to parse a function definition whose name token is at `i`
  /// (identifier directly followed by '('). Returns the index past the body
  /// on success, `i` unchanged when this is not a definition.
  std::size_t try_function(std::size_t i) {
    // The name may carry a qualifier chain: A::B::name. Record the last
    // qualifier (the class); skip constructs that are calls/expressions.
    std::string qualifier;
    if (i >= 2 && t_[i - 1].is("::") &&
        t_[i - 2].kind == Token::Kind::kIdentifier) {
      qualifier = t_[i - 2].text;
    } else if (i >= 1 && (t_[i - 1].is(".") || t_[i - 1].is("->"))) {
      return i;  // member call expression, not a definition
    }
    std::size_t close = match_forward(t_, i + 1, "(", ")");
    if (close >= t_.size()) return i;
    std::size_t j = close + 1;
    // Trailer: cv/ref/noexcept/override/final/trailing return, until the
    // body '{', a ';' (declaration), or '=' (pure/default/delete/var init).
    while (j < t_.size()) {
      const Token& tr = t_[j];
      if (tr.is("{") || tr.is(";") || tr.is("=")) break;
      if (tr.is(",") || tr.is(")")) return i;  // parameter/expression context
      if (tr.is(":")) {  // constructor initializer list
        j = skip_ctor_inits(j + 1);
        break;
      }
      if (tr.is("(")) {
        j = match_forward(t_, j, "(", ")") + 1;
        continue;
      }
      if (tr.is("<")) {
        j = skip_angles(t_, j);
        continue;
      }
      ++j;
    }
    if (j >= t_.size() || !t_[j].is("{")) return i;
    std::size_t body_end = match_forward(t_, j, "{", "}");
    FunctionDef def;
    def.name = t_[i].text;
    def.qualifier = !qualifier.empty() ? qualifier : enclosing_class();
    def.file = f_.path;
    def.line = t_[i].line;
    scan_body(j + 1, body_end, &def);
    out_->functions.push_back(std::move(def));
    return body_end + 1;
  }

  /// Skip a constructor initializer list starting just past the ':'.
  /// Returns the index of the body '{'.
  std::size_t skip_ctor_inits(std::size_t j) {
    while (j < t_.size()) {
      // member name (possibly qualified / templated base)
      while (j < t_.size() && (t_[j].kind == Token::Kind::kIdentifier ||
                               t_[j].is("::"))) {
        ++j;
      }
      if (j < t_.size() && t_[j].is("<")) j = skip_angles(t_, j);
      if (j >= t_.size()) break;
      if (t_[j].is("(")) {
        j = match_forward(t_, j, "(", ")") + 1;
      } else if (t_[j].is("{")) {
        j = match_forward(t_, j, "{", "}") + 1;
      } else {
        break;  // malformed; let the caller decide
      }
      if (j < t_.size() && t_[j].is(",")) {
        ++j;
        continue;
      }
      break;
    }
    return j;
  }

  /// Record call sites and local statics inside a body token range.
  void scan_body(std::size_t begin, std::size_t end, FunctionDef* def) {
    for (std::size_t j = begin; j < end; ++j) {
      const Token& tok = t_[j];
      if (tok.ident("static")) {
        scan_static(j, /*local=*/true);
        continue;
      }
      if (tok.kind != Token::Kind::kIdentifier || is_keyword(tok.text)) {
        continue;
      }
      if (j + 1 >= end || !t_[j + 1].is("(")) continue;
      CallSite call;
      call.name = tok.text;
      call.line = tok.line;
      if (j >= 1 && (t_[j - 1].is(".") || t_[j - 1].is("->"))) {
        call.member = true;
        if (j >= 2) {
          static_cast<void>(receiver_chain(t_, j - 2, &call.receiver));
        }
      } else if (j >= 2 && t_[j - 1].is("::") &&
                 t_[j - 2].kind == Token::Kind::kIdentifier) {
        call.qualifier = t_[j - 2].text;
      }
      def->calls.push_back(std::move(call));
    }
  }

  /// A `static` keyword at `i`: record the declared variable unless it is
  /// const/constexpr or a function (declarator directly followed by '(').
  void scan_static(std::size_t i, bool local) {
    std::size_t j = i + 1;
    std::string last_ident;
    int line = t_[i].line;
    while (j < t_.size()) {
      const Token& tok = t_[j];
      if (tok.ident("const") || tok.ident("constexpr") ||
          tok.ident("consteval") || tok.ident("constinit")) {
        return;  // immutable: not P3 material
      }
      if (tok.is(";") || tok.is("=") || tok.is("{")) break;
      if (tok.is("(")) {
        // `static T name(...)`: a function declaration/definition at
        // namespace scope, or a direct-initialized local. Treat a preceding
        // identifier as the declarator either way; namespace-scope functions
        // are filtered by the definition scanner owning this token range.
        if (!local) return;
        break;
      }
      if (tok.is("<")) {
        j = skip_angles(t_, j);
        continue;
      }
      if (tok.kind == Token::Kind::kIdentifier && !is_keyword(tok.text)) {
        last_ident = tok.text;
      }
      ++j;
    }
    if (last_ident.empty()) return;
    out_->statics[f_.path].push_back(StaticDecl{last_ident, line, local});
  }

  const SourceFile& f_;
  const Tokens& t_;
  SymbolTable* out_;
  std::vector<Scope> scopes_;
};

}  // namespace

std::size_t receiver_chain(const std::vector<Token>& toks, std::size_t i,
                           std::vector<std::string>* idents) {
  std::size_t first = i + 1;
  while (true) {
    if (first == 0) break;
    const Token& t = toks[first - 1];
    if (t.kind == Token::Kind::kIdentifier) {
      if (idents != nullptr) idents->push_back(t.text);
      --first;
    } else if (t.is(".") || t.is("->") || t.is("::")) {
      --first;
    } else if (t.is(")") || t.is("]")) {
      std::string_view open = t.is(")") ? "(" : "[";
      std::string_view close = t.is(")") ? ")" : "]";
      int depth = 0;
      std::size_t j = first - 1;
      while (true) {
        if (toks[j].is(close)) ++depth;
        if (toks[j].is(open) && --depth == 0) break;
        if (j == 0) break;
        --j;
      }
      if (depth != 0) break;
      first = j;
    } else {
      break;
    }
  }
  return first;
}

SymbolTable SymbolTable::build(const std::vector<SourceFile>& files) {
  SymbolTable table;
  for (std::size_t i = 0; i < files.size(); ++i) {
    Extractor(files[i], &table).run();
  }
  for (std::size_t i = 0; i < table.functions.size(); ++i) {
    table.by_name[table.functions[i].name].push_back(i);
  }
  return table;
}

std::vector<std::size_t> SymbolTable::find(std::string_view name) const {
  std::string want(name);
  std::string qualifier;
  std::size_t sep = want.rfind("::");
  if (sep != std::string::npos) {
    qualifier = want.substr(0, sep);
    want = want.substr(sep + 2);
  }
  std::vector<std::size_t> out;
  auto it = by_name.find(want);
  if (it == by_name.end()) return out;
  for (std::size_t idx : it->second) {
    if (qualifier.empty() || functions[idx].qualifier == qualifier) {
      out.push_back(idx);
    }
  }
  return out;
}

std::set<std::string> layer_closure(const LayerSpec& layers,
                                    const std::string& module) {
  std::set<std::string> closure;
  std::deque<std::string> work{module};
  while (!work.empty()) {
    std::string m = work.front();
    work.pop_front();
    if (!closure.insert(m).second) continue;
    auto it = layers.allowed.find(m);
    if (it == layers.allowed.end()) continue;
    for (const std::string& dep : it->second) {
      if (dep == "*") return {};  // unrestricted
      work.push_back(dep);
    }
  }
  return closure;
}

CallGraph CallGraph::resolve(const SymbolTable& table,
                             const LayerSpec& layers) {
  CallGraph g;
  g.out.resize(table.functions.size());
  // Per-module closures, computed once.
  std::map<std::string, std::set<std::string>> closures;
  for (std::size_t i = 0; i < table.functions.size(); ++i) {
    const FunctionDef& caller = table.functions[i];
    std::string mod = module_of(caller.file);
    auto cit = closures.find(mod);
    if (cit == closures.end()) {
      cit = closures.emplace(mod, layer_closure(layers, mod)).first;
    }
    const std::set<std::string>& closure = cit->second;
    std::vector<std::size_t>& edges = g.out[i];
    for (const CallSite& call : caller.calls) {
      auto nit = table.by_name.find(call.name);
      if (nit == table.by_name.end()) continue;
      for (std::size_t cand : nit->second) {
        const FunctionDef& callee = table.functions[cand];
        // Shape filter: a member call never targets a free function; a
        // plain unqualified call targets free functions or methods of the
        // caller's own class; `X::f(...)` prefers class X but also matches
        // a free f reached via a namespace qualifier.
        if (call.member) {
          if (callee.qualifier.empty()) continue;
        } else if (!call.qualifier.empty()) {
          if (!callee.qualifier.empty() &&
              callee.qualifier != call.qualifier) {
            continue;
          }
        } else {
          if (!callee.qualifier.empty() &&
              callee.qualifier != caller.qualifier) {
            continue;
          }
        }
        // Layer pruning: an empty closure means unrestricted (`*`).
        if (!closure.empty() &&
            closure.count(module_of(callee.file)) == 0) {
          continue;
        }
        edges.push_back(cand);
      }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }
  return g;
}

std::vector<std::size_t> CallGraph::reach(
    const std::vector<std::size_t>& roots) const {
  std::vector<std::size_t> parent(out.size(), kNoFunction);
  std::deque<std::size_t> work;
  for (std::size_t r : roots) {
    if (r < parent.size() && parent[r] == kNoFunction) {
      parent[r] = r;
      work.push_back(r);
    }
  }
  while (!work.empty()) {
    std::size_t u = work.front();
    work.pop_front();
    for (std::size_t v : out[u]) {
      if (parent[v] == kNoFunction) {
        parent[v] = u;
        work.push_back(v);
      }
    }
  }
  return parent;
}

}  // namespace ahsw::lint
