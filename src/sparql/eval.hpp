// Local SPARQL evaluation over one triple store.
//
// This is the "Local Query Execution" box of the paper's Fig. 3 workflow:
// every storage node runs this engine against its own RDF repository when a
// sub-query is shipped to it. The same engine evaluated against a merged
// store acts as the oracle that distributed execution is tested against.
#pragma once

#include <string>
#include <vector>

#include "rdf/store.hpp"
#include "sparql/algebra.hpp"
#include "sparql/ast.hpp"
#include "sparql/columnar.hpp"
#include "sparql/solution.hpp"

namespace ahsw::sparql {

/// Evaluation engine bound to a triple store.
class LocalEngine {
 public:
  explicit LocalEngine(const rdf::TripleStore& store) : store_(&store) {}

  /// Evaluate any algebra expression to a solution set.
  [[nodiscard]] SolutionSet evaluate(const Algebra& a) const;

  /// Evaluate a BGP with binding propagation (patterns are greedily ordered
  /// by selectivity: most-bound first, preferring ones sharing variables
  /// with those already evaluated).
  [[nodiscard]] SolutionSet evaluate_bgp(
      const std::vector<BgpPattern>& bgp) const;

  /// Solutions of one triple pattern in store ids, in index order, with
  /// repeated-variable consistency (e.g. `?x p ?x`) enforced by id equality
  /// and any pushed filter applied to each matching row.
  [[nodiscard]] IdRows match_ids(const BgpPattern& p) const;

  /// match_ids materialized as Bindings.
  [[nodiscard]] SolutionSet match_pattern(const BgpPattern& p) const;

 private:
  /// Extend each binding in `input` with matches of `p`.
  [[nodiscard]] SolutionSet extend(const SolutionSet& input,
                                   const BgpPattern& p) const;

  const rdf::TripleStore* store_;
};

/// Result of running a full query.
struct QueryResult {
  QueryForm form = QueryForm::kSelect;
  std::vector<std::string> variables;  // SELECT projection
  SolutionSet solutions;               // SELECT
  bool ask_answer = false;             // ASK
  std::vector<rdf::Triple> graph;      // CONSTRUCT / DESCRIBE
};

/// The row indexes of `set` in ORDER BY order (stable; unbound orders
/// lowest, numeric before lexical comparison).
[[nodiscard]] std::vector<std::size_t> order_permutation(
    const SolutionSet& set, const std::vector<OrderCondition>& order);

/// The same for id rows, materializing only the columns the conditions
/// read (the distributed processor reorders its id rows by it).
[[nodiscard]] std::vector<std::size_t> order_permutation(
    const IdRows& rows, const std::vector<OrderCondition>& order);

/// The answer to `q` from its raw pattern-matching result, computed in ids:
/// canonical order (or ORDER BY), projection, DISTINCT (first occurrence of
/// each projected id tuple), REDUCED (adjacent duplicates), OFFSET/LIMIT;
/// only the delivered rows' projected columns are materialized, and ASK
/// materializes nothing. CONSTRUCT materializes each distinct tuple of the
/// template's variables once; DESCRIBE needs `store` (the distributed
/// processor, which passes none, resolves its targets itself). This is the
/// post-processing stage at the query initiator.
[[nodiscard]] QueryResult finalize_result(const Query& q, const IdRows& raw,
                                          const rdf::TripleStore* store);

/// Parse-transform-evaluate a whole query against one local store (the
/// result is interned into a private dictionary and finalized in ids).
[[nodiscard]] QueryResult execute_local(const Query& q,
                                        const rdf::TripleStore& store);

/// vec_deduplicated under the kernel's name: the benchmark harness
/// (perfbench/) compares answers with it. Everything else calls
/// vec_deduplicated.
[[nodiscard]] SolutionSet deduplicated(const SolutionSet& in);

}  // namespace ahsw::sparql
