// Symbol-table + call-graph extraction for the effect analysis (effects.hpp).
//
// The tokenizer (source.hpp) gives a flat token stream; this layer finds in
// it the things a whole-program pass needs and token rules cannot see: which
// function every token range belongs to, which functions call which, and
// where non-const static state is declared. It is a heuristic extractor, not
// a C++ front end — overload sets collapse to names, templates are scanned
// like plain code, and a member call resolves to every class that defines a
// method of that name (pruned by the layer DAG: a caller can only reach
// definitions in modules its module may include). Over-approximation is the
// safe direction for the parallel-safety contract: a spurious edge can only
// demand a justification, never hide a mutation.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/rules.hpp"
#include "lint/source.hpp"

namespace ahsw::lint {

/// One call site inside a function body.
struct CallSite {
  std::string name;       // callee (rightmost identifier before '(')
  std::string qualifier;  // `X::name` -> "X"; empty when unqualified
  bool member = false;    // called through '.' or '->'
  std::vector<std::string> receiver;  // receiver-chain identifiers, if member
  int line = 0;
};

/// A non-const `static` (or namespace-scope `static`/`inline`) variable —
/// the raw material of rule P3.
struct StaticDecl {
  std::string name;
  int line = 0;
  bool local = false;  // function-local static vs namespace/class scope
};

/// One function definition found in the scanned tree.
struct FunctionDef {
  std::string name;       // unqualified
  std::string qualifier;  // enclosing class or explicit `Class::`; "" = free
  std::string file;       // repo-relative path
  int line = 0;
  std::vector<CallSite> calls;

  [[nodiscard]] std::string qualified() const {
    return qualifier.empty() ? name : qualifier + "::" + name;
  }
};

/// All function definitions of a file set, with a name index.
struct SymbolTable {
  std::vector<FunctionDef> functions;  // file order, then line order
  /// Unqualified name -> indices into `functions`.
  std::map<std::string, std::vector<std::size_t>> by_name;
  /// Statics per file (file -> decls), for rule P3.
  std::map<std::string, std::vector<StaticDecl>> statics;

  [[nodiscard]] static SymbolTable build(const std::vector<SourceFile>& files);

  /// Indices of definitions whose qualified name is `name` (either exactly
  /// `Class::method`, or a bare `method`/free-function name).
  [[nodiscard]] std::vector<std::size_t> find(std::string_view name) const;
};

inline constexpr std::size_t kNoFunction = static_cast<std::size_t>(-1);

/// The resolved call graph over a SymbolTable.
struct CallGraph {
  /// out[i] = indices of functions that function i may call (sorted, deduped).
  std::vector<std::vector<std::size_t>> out;

  /// Resolve call sites to definitions. `layers` prunes impossible edges:
  /// a caller in module M only resolves into modules in M's transitive
  /// include closure (plus M itself); `*` modules resolve everywhere.
  [[nodiscard]] static CallGraph resolve(const SymbolTable& table,
                                         const LayerSpec& layers);

  /// BFS from `roots`; returns, per function, the predecessor on a shortest
  /// path from a root (kNoFunction when unreachable, self for a root).
  [[nodiscard]] std::vector<std::size_t> reach(
      const std::vector<std::size_t>& roots) const;
};

/// Walk a member-access chain backwards from token `i` (inclusive) and
/// collect its identifiers, e.g. `overlay_->network().stats` at the final
/// token yields {stats, network, overlay_}. Returns the chain's first index.
[[nodiscard]] std::size_t receiver_chain(const std::vector<Token>& toks,
                                         std::size_t i,
                                         std::vector<std::string>* idents);

/// Transitive include closure of `module` under the layer spec (includes
/// `module` itself; `*` yields an empty set meaning "everything").
[[nodiscard]] std::set<std::string> layer_closure(const LayerSpec& layers,
                                                  const std::string& module);

}  // namespace ahsw::lint
