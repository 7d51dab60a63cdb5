#include "lint/rules.hpp"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <set>

#include "common/strings.hpp"

namespace ahsw::lint {

namespace {

using Tokens = std::vector<Token>;

[[nodiscard]] std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

[[nodiscard]] bool contains_ci(std::string_view hay, std::string_view needle) {
  return lower(hay).find(lower(needle)) != std::string::npos;
}

/// True when `path` starts with any of the given prefixes — the rule
/// whitelists (the accounting layer may mutate its own counters, the Rng
/// wrapper may touch entropy, the PointMap wrapper may hold a hash map).
[[nodiscard]] bool whitelisted(std::string_view path,
                               std::initializer_list<std::string_view> list) {
  for (std::string_view p : list) {
    if (common::starts_with(path, p)) return true;
  }
  return false;
}

/// Forward scan from the token at `open` (which must be the opening
/// bracket) to its matching closer; returns the index of the closer, or
/// tokens.size() when unbalanced.
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

/// Walk backwards from `i` (inclusive) over a member-access chain
/// (identifiers, `.`, `->`, `::`, and balanced `()` / `[]` groups) and
/// collect the identifiers, e.g. `overlay_->network().stats` yields
/// {stats, network, overlay_}. Returns the index of the first token of the
/// chain.
[[nodiscard]] std::size_t chain_back(const Tokens& toks, std::size_t i,
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

// -- comment attachment -----------------------------------------------------

/// The code line a comment is attached to: its own last line when that line
/// also carries code (trailing comment), else the first code line below it
/// with only comment lines in between (a blank line breaks the attachment).
[[nodiscard]] int attach_line(const SourceFile& file, const Comment& c) {
  if (file.line_has_code(c.end)) return c.end;
  std::vector<char> commented(static_cast<std::size_t>(file.last_line) + 2, 0);
  for (const Comment& other : file.comments) {
    for (int l = other.begin; l <= other.end && l <= file.last_line; ++l) {
      commented[static_cast<std::size_t>(l)] = 1;
    }
  }
  for (int l = c.end + 1; l <= file.last_line; ++l) {
    if (file.line_has_code(l)) return l;
    if (commented[static_cast<std::size_t>(l)] == 0) break;  // blank line
  }
  return -1;
}

// -- D rules: determinism ---------------------------------------------------

struct BannedIdent {
  std::string_view ident;
  std::string_view why;
};

constexpr std::string_view kHashOrder =
    "hash container whose iteration order is unspecified; use "
    "common::PointMap (point lookups, no iterators) or an ordered container";

// Identifiers that may never appear in sim code, wherever they come from.
constexpr BannedIdent kBannedAlways[] = {
    {"system_clock", "wall-clock read; thread net::SimTime instead"},
    {"steady_clock", "wall-clock read; thread net::SimTime instead"},
    {"high_resolution_clock", "wall-clock read; thread net::SimTime instead"},
    {"random_device", "nondeterministic entropy; seed a common::Rng"},
    {"mt19937", "unsanctioned RNG; use common::Rng"},
    {"mt19937_64", "unsanctioned RNG; use common::Rng"},
    {"default_random_engine", "unsanctioned RNG; use common::Rng"},
    {"rand", "global unseeded RNG; use common::Rng"},
    {"srand", "global unseeded RNG; use common::Rng"},
    {"this_thread", "real-time waiting has no place in simulated time"},
    {"unordered_map", kHashOrder},
    {"unordered_set", kHashOrder},
    {"unordered_multimap", kHashOrder},
    {"unordered_multiset", kHashOrder},
};

// Identifiers banned only as direct calls (`time(...)`), since the bare
// names are too common as members and locals.
constexpr BannedIdent kBannedCalls[] = {
    {"time", "wall-clock read; thread net::SimTime instead"},
    {"clock", "wall-clock read; thread net::SimTime instead"},
    {"gettimeofday", "wall-clock read; thread net::SimTime instead"},
    {"localtime", "wall-clock read; thread net::SimTime instead"},
    {"gmtime", "wall-clock read; thread net::SimTime instead"},
    {"strftime", "wall-clock formatting; sim code reports SimTime"},
};

constexpr std::string_view kNondeterministic =
    "pulls wall-clock/OS-randomness/threading into sim code; determinism "
    "requires common::Rng and net::SimTime";
constexpr std::string_view kHashHeader =
    "pulls a hash container into sim code; its iteration order is "
    "unspecified, so use common::PointMap or an ordered container";

// Headers whose inclusion is itself the violation.
constexpr BannedIdent kBannedIncludes[] = {
    {"chrono", kNondeterministic},    {"ctime", kNondeterministic},
    {"time.h", kNondeterministic},    {"random", kNondeterministic},
    {"thread", kNondeterministic},    {"sys/time.h", kNondeterministic},
    {"pthread.h", kNondeterministic}, {"unordered_map", kHashHeader},
    {"unordered_set", kHashHeader},
};

void check_d1(const SourceFile& f, std::vector<Diagnostic>* out) {
  // The sanctioned wrappers: common::Rng owns the entropy, common::PointMap
  // the one hash container.
  if (whitelisted(f.path, {"src/common/rng", "src/common/point_map"})) return;
  for (const IncludeDirective& inc : f.includes) {
    for (const BannedIdent& banned : kBannedIncludes) {
      if (inc.path == banned.ident) {
        out->push_back(Diagnostic{"D1", f.path, inc.line,
                                  "#include <" + inc.path + "> " +
                                      std::string(banned.why)});
      }
    }
  }
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdentifier) continue;
    const bool member = i > 0 && (t[i - 1].is(".") || t[i - 1].is("->"));
    if (member) continue;  // .rand / ->time are someone else's members
    const bool qualified = i > 0 && t[i - 1].is("::");
    const bool std_qualified =
        qualified && i > 1 && t[i - 2].ident("std");
    const bool chrono_qualified =
        qualified && i > 1 && t[i - 2].ident("chrono");
    for (const BannedIdent& b : kBannedAlways) {
      if (t[i].text == b.ident &&
          (!qualified || std_qualified || chrono_qualified)) {
        out->push_back(Diagnostic{"D1", f.path, t[i].line,
                                  "'" + t[i].text + "': " +
                                      std::string(b.why)});
      }
    }
    const bool call = i + 1 < t.size() && t[i + 1].is("(");
    if (call && (!qualified || std_qualified)) {
      for (const BannedIdent& b : kBannedCalls) {
        if (t[i].text == b.ident) {
          out->push_back(Diagnostic{"D1", f.path, t[i].line,
                                    "'" + t[i].text + "()': " +
                                        std::string(b.why)});
        }
      }
    }
    if ((t[i].text == "thread" || t[i].text == "jthread") && std_qualified) {
      out->push_back(Diagnostic{
          "D1", f.path, t[i].line,
          "'std::" + t[i].text +
              "': real concurrency breaks deterministic replay; model "
              "parallelism through the event scheduler"});
    }
  }
}

/// Skip a template argument list starting at `<`: angle depth only, with
/// `>>` closing two. Stops at a `;` (a comparison, not a template).
[[nodiscard]] std::size_t skip_angles(const Tokens& t, std::size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].is("<")) ++depth;
    if (t[i].is(">") && --depth == 0) return i + 1;
    if (t[i].is(">>")) {
      depth -= 2;
      if (depth <= 0) return i + 1;
    }
    if (t[i].is(";")) return i;
  }
  return i;
}

/// Keywords that can stand between `static` and a variable's name.
[[nodiscard]] bool is_decl_keyword(std::string_view t) {
  static constexpr std::string_view kKeywords[] = {
      "static", "inline",   "thread_local", "volatile", "mutable",
      "struct", "class",    "union",        "enum",     "typename",
      "auto",   "void",     "bool",         "char",     "int",
      "long",   "short",    "float",        "double",   "unsigned",
      "signed", "template",
  };
  return std::find(std::begin(kKeywords), std::end(kKeywords), t) !=
         std::end(kKeywords);
}

/// The variable a `static`/`inline` at `i` declares, or "" when it is
/// const/constexpr, a function or an inline namespace. At declaration
/// scope `name(` is a function; inside a function body it is a
/// direct-initialized local.
[[nodiscard]] std::string static_variable(const Tokens& t, std::size_t i,
                                          bool local) {
  std::string name;
  for (std::size_t j = i + 1; j < t.size();) {
    const Token& tok = t[j];
    if (tok.ident("const") || tok.ident("constexpr") ||
        tok.ident("consteval") || tok.ident("constinit") ||
        tok.ident("namespace")) {
      return "";
    }
    if (tok.is(";") || tok.is("=") || tok.is("{")) break;
    if (tok.is("(")) {
      if (!local) return "";
      break;
    }
    if (tok.is("<")) {
      j = skip_angles(t, j);
      continue;
    }
    if (tok.kind == Token::Kind::kIdentifier && !is_decl_keyword(tok.text)) {
      name = tok.text;
    }
    ++j;
  }
  return name;
}

/// Whether the `{` at `open` opens a namespace, class or enum body rather
/// than a function body, block or initializer: its declaration names a
/// class-key or `namespace` and it does not follow a parameter list.
[[nodiscard]] bool opens_scope(const Tokens& t, std::size_t open) {
  if (open > 0 && t[open - 1].is(")")) return false;
  for (std::size_t j = open; j > 0; --j) {
    const Token& tok = t[j - 1];
    if (tok.is(";") || tok.is("{") || tok.is("}")) break;
    if (tok.ident("namespace") || tok.ident("class") || tok.ident("struct") ||
        tok.ident("union") || tok.ident("enum") || tok.ident("extern")) {
      return true;
    }
  }
  return false;
}

void check_d4(const SourceFile& f, std::vector<Diagnostic>* out) {
  if (!common::starts_with(f.path, "src/")) return;
  const Tokens& t = f.tokens;
  std::vector<bool> body;  // per open brace: inside a function body?
  for (std::size_t i = 0; i < t.size(); ++i) {
    const bool in_body = !body.empty() && body.back();
    if (t[i].is("{")) {
      body.push_back(in_body || !opens_scope(t, i));
    } else if (t[i].is("}")) {
      if (!body.empty()) body.pop_back();
    } else if (t[i].ident("static") || (!in_body && t[i].ident("inline"))) {
      const std::string name = static_variable(t, i, in_body);
      if (name.empty()) continue;
      out->push_back(Diagnostic{
          "D4", f.path, t[i].line,
          std::string(in_body ? "function-local static '"
                              : "non-const static/global '") +
              name +
              "' is mutable state every worker thread of the parallel "
              "driver shares; make it const or pass it explicitly"});
    }
  }
}

// -- A rules: accounting ----------------------------------------------------

constexpr std::string_view kCounterFields[] = {
    "messages", "bytes", "timeouts", "messages_by", "bytes_by", "timeouts_by"};

/// Location-row cache effectiveness counters (overlay::CacheStats). Their
/// names are generic, so a mutation only counts as an accounting violation
/// when the receiver chain names a cache or stats object.
constexpr std::string_view kCacheCounterFields[] = {
    "hits", "misses", "invalidations", "expirations", "insertions", "leases"};

/// Compression accounting pair (wire-charged vs uncompressed size). Unlike
/// the generic counters these names are unambiguous, so any mutation
/// outside the accounting layer is a violation — no receiver-chain
/// heuristic needed.
constexpr std::string_view kWireCounterFields[] = {"raw_bytes", "wire_bytes"};

void check_a2(const SourceFile& f, std::vector<Diagnostic>* out) {
  if (whitelisted(f.path, {"src/net/network", "src/overlay/location_cache"})) {
    return;
  }
  const Tokens& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!(t[i].is(".") || t[i].is("->"))) continue;
    const Token& field = t[i + 1];
    bool is_counter = false;
    bool is_cache_counter = false;
    bool is_wire_counter = false;
    for (std::string_view c : kCounterFields) {
      if (field.ident(c)) is_counter = true;
    }
    for (std::string_view c : kCacheCounterFields) {
      if (field.ident(c)) is_cache_counter = true;
    }
    for (std::string_view c : kWireCounterFields) {
      if (field.ident(c)) is_wire_counter = true;
    }
    if (!is_counter && !is_cache_counter && !is_wire_counter) continue;
    std::size_t j = i + 2;
    if (j < t.size() && t[j].is("[")) {
      j = match_forward(t, j, "[", "]") + 1;
    }
    std::vector<std::string> chain;
    std::size_t first = chain_back(t, i - 1, &chain);
    bool mutating =
        j < t.size() && (t[j].is("=") || t[j].is("+=") || t[j].is("-=") ||
                         t[j].is("*=") || t[j].is("/=") || t[j].is("++") ||
                         t[j].is("--"));
    if (!mutating && first > 0 &&
        (t[first - 1].is("++") || t[first - 1].is("--"))) {
      mutating = true;
    }
    if (!mutating) continue;
    bool accounting_target =
        is_wire_counter || (is_counter && field.text.size() > 3 &&
                            field.text.substr(field.text.size() - 3) == "_by");
    for (const std::string& link : chain) {
      if (is_counter &&
          (contains_ci(link, "stats") || contains_ci(link, "traffic"))) {
        accounting_target = true;
      }
      if (is_cache_counter &&
          (contains_ci(link, "cache") || contains_ci(link, "stats"))) {
        accounting_target = true;
      }
    }
    if (accounting_target) {
      const char* what =
          is_wire_counter
              ? "' mutated outside the accounting layer; compressed/raw "
                "byte pairs change only through Network charging or the "
                "span ledger"
              : is_counter
                    ? "' mutated outside the accounting layer; byte totals "
                      "change only through Network charging or "
                      "TrafficStats::accumulate"
                    : "' mutated outside the accounting layer; cache "
                      "counters change only inside LocationCache or through "
                      "CacheStats::accumulate";
      out->push_back(Diagnostic{"A2", f.path, field.line,
                                "traffic counter '" + field.text + what});
    }
  }
}

// -- O rules: observability -------------------------------------------------

/// Enums whose switches must stay exhaustive.
constexpr std::string_view kGuardedEnums[] = {"Category", "SpanKind",
                                              "PhysOpKind"};

/// Scan one switch statement (token `i` is the `switch` keyword). Nested
/// switches are handled recursively and excluded from the enclosing
/// switch's own case/default accounting. Returns the index just past the
/// switch body.
std::size_t scan_switch(const SourceFile& f, std::size_t i,
                        std::vector<Diagnostic>* out) {
  const Tokens& t = f.tokens;
  if (i + 1 >= t.size() || !t[i + 1].is("(")) return i + 1;
  std::size_t cond_close = match_forward(t, i + 1, "(", ")");
  if (cond_close + 1 >= t.size() || !t[cond_close + 1].is("{")) {
    return cond_close + 1;
  }
  std::set<std::string> case_enums;
  int default_line = 0;
  int depth = 0;
  std::size_t j = cond_close + 1;
  while (j < t.size()) {
    if (t[j].is("{")) {
      ++depth;
      ++j;
      continue;
    }
    if (t[j].is("}")) {
      if (--depth == 0) {
        ++j;
        break;
      }
      ++j;
      continue;
    }
    if (t[j].ident("switch") && j + 1 < t.size() && t[j + 1].is("(")) {
      j = scan_switch(f, j, out);
      continue;
    }
    if (depth == 1 && t[j].ident("case")) {
      // Tokens of the label up to the ':'; the enum is the identifier
      // before the last '::'.
      std::size_t colon = j + 1;
      while (colon < t.size() && !t[colon].is(":")) ++colon;
      for (std::size_t k = j + 1; k + 1 < colon; ++k) {
        if (t[k].kind == Token::Kind::kIdentifier && t[k + 1].is("::")) {
          case_enums.insert(t[k].text);  // last one wins: Foo::Bar::kX -> Bar
        }
      }
      // Keep only the final qualifier as the enum name.
      j = colon + 1;
      continue;
    }
    if (depth == 1 && t[j].ident("default") && j + 1 < t.size() &&
        t[j + 1].is(":")) {
      default_line = t[j].line;
      j += 2;
      continue;
    }
    ++j;
  }
  if (default_line != 0) {
    for (const std::string& e : case_enums) {
      if (std::find(std::begin(kGuardedEnums), std::end(kGuardedEnums), e) !=
          std::end(kGuardedEnums)) {
        out->push_back(Diagnostic{
            "O2", f.path, default_line,
            "switch over guarded enum '" + e +
                "' has a default: label; enumerate every value so a new "
                "enumerator fails the -Wswitch build instead of silently "
                "falling through"});
        break;
      }
    }
  }
  return j;
}

void check_o2(const SourceFile& f, std::vector<Diagnostic>* out) {
  const Tokens& t = f.tokens;
  std::size_t i = 0;
  while (i < t.size()) {
    if (t[i].ident("switch") && i + 1 < t.size() && t[i + 1].is("(")) {
      i = scan_switch(f, i, out);
    } else {
      ++i;
    }
  }
}

// -- suppressions -----------------------------------------------------------

struct Suppression {
  std::set<std::string> rules;
  std::set<int> lines;  // lines this suppression covers
  int line = 0;         // where the marker sits (for S1)
  bool justified = false;
  bool malformed = false;
};

constexpr std::string_view kMarker = "ahsw-lint:";

[[nodiscard]] std::vector<Suppression> collect_suppressions(
    const SourceFile& f) {
  std::vector<Suppression> out;
  for (const Comment& c : f.comments) {
    std::size_t at = c.text.find(kMarker);
    if (at == std::string::npos) continue;
    Suppression s;
    s.line = c.begin;
    for (int l = c.begin; l <= c.end; ++l) s.lines.insert(l);
    int target = attach_line(f, c);
    if (target > 0) s.lines.insert(target);
    std::string_view rest =
        common::trim(std::string_view(c.text).substr(at + kMarker.size()));
    if (!common::starts_with(rest, "allow(")) {
      s.malformed = true;
      out.push_back(std::move(s));
      continue;
    }
    rest.remove_prefix(6);
    std::size_t close = rest.find(')');
    if (close == std::string_view::npos) {
      s.malformed = true;
      out.push_back(std::move(s));
      continue;
    }
    std::string rules(rest.substr(0, close));
    std::replace(rules.begin(), rules.end(), ',', ' ');
    for (std::string_view r : common::split(rules, ' ')) {
      r = common::trim(r);
      if (!r.empty()) s.rules.insert(std::string(r));
    }
    if (s.rules.empty()) s.malformed = true;
    // Justification: anything after ')' beyond comment decoration.
    std::string_view why = rest.substr(close + 1);
    for (char ch : why) {
      if (std::isalnum(static_cast<unsigned char>(ch)) != 0) {
        s.justified = true;
        break;
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

std::string Diagnostic::to_string() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> kCatalogue = {
      {"D1", "determinism",
       "wall-clock, OS randomness, threading primitives and raw hash "
       "containers are banned in sim code; use common::Rng, net::SimTime "
       "and common::PointMap"},
      {"D4", "determinism",
       "no non-const namespace-scope, class-scope or function-local "
       "static/inline variables in src/"},
      {"A2", "accounting",
       "traffic, cache, and compression (raw_bytes/wire_bytes) counters "
       "mutate only inside the accounting layer (Network / TrafficStats / "
       "LocationCache)"},
      {"O2", "observability",
       "switches over guarded enums (Category, SpanKind, PhysOpKind) stay "
       "exhaustive with no default: label"},
      {"S1", "suppressions",
       "ahsw-lint: allow(...) markers are well-formed and carry a "
       "justification"},
  };
  return kCatalogue;
}

std::vector<Diagnostic> run_rules(const SourceFile& file) {
  std::vector<Diagnostic> out;
  check_d1(file, &out);
  check_d4(file, &out);
  check_a2(file, &out);
  check_o2(file, &out);
  return out;
}

std::vector<Diagnostic> apply_suppressions(const SourceFile& file,
                                           std::vector<Diagnostic> raw,
                                           std::size_t* suppressed_count) {
  std::vector<Suppression> sups = collect_suppressions(file);
  std::vector<Diagnostic> kept;
  std::size_t suppressed = 0;
  std::set<int> flagged_sups;  // S1 once per bad suppression
  for (Diagnostic& d : raw) {
    bool drop = false;
    for (const Suppression& s : sups) {
      if (s.malformed || s.rules.count(d.rule) == 0 ||
          s.lines.count(d.line) == 0) {
        continue;
      }
      if (s.justified) {
        drop = true;
      } else {
        flagged_sups.insert(s.line);
      }
      break;
    }
    if (drop) {
      ++suppressed;
    } else {
      kept.push_back(std::move(d));
    }
  }
  for (const Suppression& s : sups) {
    if (s.malformed) {
      kept.push_back(Diagnostic{
          "S1", file.path, s.line,
          "malformed ahsw-lint marker; expected `ahsw-lint: "
          "allow(RULE[,RULE...]) <justification>`"});
    } else if (!s.justified && flagged_sups.count(s.line) > 0) {
      kept.push_back(Diagnostic{
          "S1", file.path, s.line,
          "suppression without a justification; say *why* the rule does "
          "not apply here"});
    }
  }
  std::sort(kept.begin(), kept.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  if (suppressed_count != nullptr) *suppressed_count = suppressed;
  return kept;
}

}  // namespace ahsw::lint
