// Dictionary-id implementations of the SPARQL set algebra: the one kernel
// set behind join, minus, left_join, left_join_conditioned, filter_set and
// deduplicated (those names forward here).
//
// Each kernel interns every distinct term of its operand sets into a
// per-operation rdf::TermDictionary — ids assigned in Term `operator<=>`
// order, so id order == term order — and runs the algebra over columnar
// TermId batches. Strings are touched exactly twice per operation: once to
// intern each distinct term and once to materialize the surviving rows.
//
// Row-order contract: join emits, per left row in order, the compatible
// right rows in their input order (fully keyed matches before rows that
// leave a shared variable unbound); minus and filter keep input order; an
// unconditioned left join appends the unmatched left rows after the join
// part, a conditioned one emits each left row's extensions (or the row
// alone) in place; distinct is the canonical sort with duplicates removed.
// Rows, plan notes and traffic of every distributed query depend on this
// order, so the golden digests pin it, and
// tests/sparql/kernel_reference_test.cpp checks it row for row against the
// row-at-a-time reference in tests/support/.
//
// MergeAccumulator is the id-space form of the in-network merges of the
// primitive strategies (scatter gather and provider chains): it holds the
// running deduplicated(set_union(acc, next)) as id tuples, so a merge costs
// the new provider's rows, not the whole accumulated set. Provider rows
// arrive as ScanRows in the ids of the overlay-wide store dictionary and
// become Bindings only at take(). IdTable is the shape net::wire sizes
// payloads from.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rdf/dictionary.hpp"
#include "sparql/expr.hpp"
#include "sparql/solution.hpp"

namespace ahsw::sparql {

/// Join: O1 x O2.
[[nodiscard]] SolutionSet vec_join(const SolutionSet& a, const SolutionSet& b);

/// Minus: O1 - O2.
[[nodiscard]] SolutionSet vec_minus(const SolutionSet& a,
                                    const SolutionSet& b);

/// LeftJoin without condition: join part then unmatched rows.
[[nodiscard]] SolutionSet vec_left_join(const SolutionSet& a,
                                        const SolutionSet& b);

/// LeftJoin with OPTIONAL condition; `cond == nullptr` means `true`.
/// Condition evaluation is memoized on the tuple of dictionary ids
/// the expression's variables take in the merged row, so each distinct
/// id-tuple pays for one string-space evaluation.
[[nodiscard]] SolutionSet vec_left_join_conditioned(const SolutionSet& a,
                                                    const SolutionSet& b,
                                                    const ExprPtr& cond);

/// Filter with the same memoization as above.
[[nodiscard]] SolutionSet vec_filter_set(const SolutionSet& in, const Expr& e);

/// Distinct: canonical sort + unique via id comparisons only
/// (id order == term order by construction, so the result matches
/// normalize() + std::unique exactly).
[[nodiscard]] SolutionSet vec_deduplicated(const SolutionSet& in);

/// One provider's matches of a triple pattern in store ids: what a scan
/// emits before any row becomes a Binding. All rows bind every variable of
/// the pattern; the ids resolve through `dict` (the store's dictionary,
/// shared by the storage nodes of one overlay).
struct ScanRows {
  /// Sorted schema: the pattern's variables, or none when no row matched.
  std::vector<std::string> vars;
  std::size_t rows = 0;
  /// rows x vars.size(), row-major.
  std::vector<rdf::TermId> cells;
  const rdf::TermDictionary* dict = nullptr;

  /// SolutionSet::byte_size() of the materialized rows.
  [[nodiscard]] std::size_t byte_size() const;
  /// The rows as Bindings, in scan order.
  [[nodiscard]] SolutionSet materialize() const;
};

/// A solution payload in id space: what the wire size of a payload depends
/// on (net::wire::charged_bytes sizes it without encoding). Ids are local
/// to the table, dense from 0.
struct IdTable {
  /// Sorted schema: the variables bound in at least one row.
  std::vector<std::string> vars;
  /// id -> its term, held by the sized set, the scan's dictionary or the
  /// merge; may list terms no row uses.
  std::vector<const rdf::Term*> terms;
  /// The distinct ids the rows use, in Term order (the wire dictionary).
  std::vector<rdf::TermId> by_rank;
  /// id -> its index in by_rank; meaningful only for ids listed there.
  std::vector<std::uint32_t> rank;
  std::size_t rows = 0;
  /// rows x vars.size(), row-major; rdf::kInvalidTermId marks unbound.
  std::vector<rdf::TermId> cells;
};

/// `s` in id space, rows in order, duplicates kept; the terms point into
/// `s`, so the table must not outlive it.
[[nodiscard]] IdTable id_table(const SolutionSet& s);
/// `rows` in id space; the terms point into its dictionary.
[[nodiscard]] IdTable id_table(const ScanRows& rows);

/// Open-addressing map from a dictionary id to a table-local id (linear
/// probing, power-of-two capacity). Per-scan state is sized by the ids the
/// scan holds, never by the dictionary it reads from.
class LocalIds {
 public:
  /// The local id of `id`, or kInvalidTermId when it has none yet.
  [[nodiscard]] rdf::TermId find(rdf::TermId id) const noexcept;
  /// Give `id` the local id `local`. Precondition: find(id) is invalid.
  void insert(rdf::TermId id, rdf::TermId local);

 private:
  [[nodiscard]] std::size_t slot(rdf::TermId id) const noexcept;
  // iteration-order: never iterated — point lookups only.
  std::vector<std::pair<rdf::TermId, rdf::TermId>> slots_;
  std::size_t used_ = 0;
};

/// The running value of `deduplicated(set_union(acc, next))` folded over
/// every add(), kept in id space. Rows live as tuples of table-local ids in
/// insertion order with a hash table used only for point lookups (never
/// iterated, rule D2); the raw size is kept incrementally and take() sorts
/// once. Provider rows arrive as ScanRows over the accumulator's dictionary
/// and are only renumbered, never interned; SolutionSet inputs (a carry,
/// tests) are mapped with TermDictionary::find, and a term the dictionary
/// lacks gets a local id of its own.
class MergeAccumulator {
 public:
  /// `dict` is the dictionary provider scans emit ids of (nullptr: every
  /// term arrives as a SolutionSet); it must outlive the accumulator.
  explicit MergeAccumulator(const rdf::TermDictionary* dict = nullptr)
      : dict_(dict) {}
  /// Not copyable: the table's terms point into this accumulator's own
  /// terms, which a copy would leave behind.
  MergeAccumulator(const MergeAccumulator&) = delete;
  MergeAccumulator& operator=(const MergeAccumulator&) = delete;
  MergeAccumulator(MergeAccumulator&&) noexcept = default;
  MergeAccumulator& operator=(MergeAccumulator&&) noexcept = default;

  /// Join every later add() against `carry` (a chain that carries the
  /// partial result of earlier conjunction patterns). The carry is mapped
  /// to ids here once and hash-grouped at the first add() on the columns it
  /// shares with the provider rows; add(local) then merges
  /// join(carry, local) without materialising it. Replaces any earlier
  /// carry.
  void set_carry(const SolutionSet& carry);

  /// Merge one provider's scan; drops rows already held.
  void add(const ScanRows& local);
  /// Merge one provider's rows given as Bindings.
  void add(const SolutionSet& local);

  /// Distinct rows held.
  [[nodiscard]] std::size_t size() const noexcept { return table_.rows; }

  /// SolutionSet::byte_size() of the merged set.
  [[nodiscard]] std::size_t raw_bytes() const noexcept { return raw_; }

  /// The merged set in id space (by_rank and rank are current).
  [[nodiscard]] const IdTable& table() const noexcept { return table_; }

  /// The distinct rows in canonical Binding order, exactly the folded
  /// deduplicated(set_union(...)); leaves the accumulator empty.
  [[nodiscard]] SolutionSet take();

 private:
  /// The carry in id space plus its hash grouping on the columns it shares
  /// with the provider rows (regrouped only if those columns change).
  struct Carry {
    std::vector<std::string> vars;
    std::size_t rows = 0;
    std::vector<rdf::TermId> cells;
    std::vector<std::size_t> key_cols;  // carry columns grouped on
    // iteration-order: never iterated — point lookups by packed shared-id
    // key only; matches are emitted in carry row order from each group.
    std::unordered_map<std::string, std::vector<std::size_t>> groups;
    std::vector<std::size_t> partial;  // rows missing a key column
  };

  /// Local id of dictionary id `id` of `dict`.
  rdf::TermId local_id(const rdf::TermDictionary* dict, rdf::TermId id);
  /// Local id of `t`: its dictionary id's, else one of its own.
  rdf::TermId local_id(const rdf::Term& t);
  /// Merge candidate rows over the sorted schema `vars` (local ids): joined
  /// with the carry first when there is one.
  void merge(const std::vector<std::string>& vars,
             const std::vector<rdf::TermId>& cells, std::size_t rows);
  /// Add candidate rows (over the sorted schema `vars`, local ids): grows
  /// the schema by the columns they bind, inserts the rows not held yet,
  /// and re-ranks the terms they bring.
  void absorb(const std::vector<std::string>& vars,
              const std::vector<rdf::TermId>& cells, std::size_t rows);
  /// Re-place every row into a wider schema and rebuild the hash table.
  void widen(const std::vector<std::string>& vars);
  /// Insert the row at the back of table_.cells unless it is held already
  /// (then pop it); returns whether it was new.
  bool insert_back();
  [[nodiscard]] std::uint64_t row_hash(std::size_t row) const noexcept;
  void rehash(std::size_t capacity);

  const rdf::TermDictionary* dict_;
  IdTable table_;
  LocalIds from_dict_;  // dict_ id -> local id
  /// Terms dict_ lacks (a carry's, or any term without a dictionary).
  std::deque<rdf::Term> own_terms_;
  // iteration-order: never iterated — point lookups only.
  std::unordered_map<rdf::Term, rdf::TermId, rdf::TermHash> own_ids_;
  std::size_t raw_ = SolutionSet{}.byte_size();
  // Open-addressing table of row index + 1 (0 = empty slot), linear probing.
  // iteration-order: never iterated — point lookups only; rows keep their
  // insertion order in table_.cells and take() sorts canonically.
  std::vector<std::uint32_t> slots_;
  std::vector<char> live_;  // local id -> used by a held row
  std::optional<Carry> carry_;
};

}  // namespace ahsw::sparql
