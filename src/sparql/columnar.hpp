// Dictionary-id implementations of the SPARQL set algebra over one id
// relation, IdRows: a sorted variable schema, row-major rdf::TermId cells
// and the rdf::TermDictionary the ids resolve through. Every intermediate
// set of a distributed query is an IdRows in the ids of the overlay-wide
// store dictionary, from the provider scan to the post-processing step,
// which materializes Bindings once for the rows the initiator delivers.
//
// The kernels (join, left_join, left_join_conditioned, filter_set,
// deduplicated, set_union, project, rows_at) read and write ids only; the
// operands of a binary kernel resolve through one dictionary. A kernel
// touches a term only to evaluate an expression (materializing the row,
// memoized per id tuple). Join keys are integer id tuples (IdTupleIndex),
// probed through one KeyedProbe by join, left_join and the
// MergeAccumulator's carry join, and every kernel that orders ids
// (deduplicated, canonical_order, id_table, MergeAccumulator) compares the
// dictionary's term ranks, so its order is Binding's whatever the
// dictionary's id order; it throws std::logic_error when the dictionary's
// term order is stale. The SolutionSet entry points are the vec_* functions
// here: each interns its operands into a private dictionary, calls the id
// kernel and materializes.
//
// Row-order contract: join emits, per left row in order, the compatible
// right rows in their input order (fully keyed matches before rows that
// leave a shared variable unbound); filter keeps input order; an
// unconditioned left join appends the unmatched left rows after the join
// part, a conditioned one emits each left row's extensions (or the row
// alone) in place; distinct is the canonical sort with duplicates removed;
// union is the left rows then the right rows. Rows, plan notes and traffic
// of every distributed query depend on this order, so the golden digests
// pin it, and tests/sparql/kernel_reference_test.cpp checks it row for row
// against the row-at-a-time reference in tests/support/.
//
// MergeAccumulator is the id-space form of the in-network merges of the
// primitive strategies (scatter gather and provider chains): it holds the
// running deduplicated(set_union(acc, next)) as id tuples, so a merge costs
// the new provider's rows, not the whole accumulated set. IdTable is the
// shape net::wire sizes payloads from.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/varint.hpp"
#include "rdf/dictionary.hpp"
#include "sparql/expr.hpp"
#include "sparql/solution.hpp"

namespace ahsw::sparql {

/// A solution relation in dictionary ids. Schema invariant: `vars` lists
/// exactly the variables bound in at least one row (none without rows), as
/// variables_of() does for the materialized set; every kernel keeps it, and
/// the wire size of the set depends on it. A row may bind no variable.
struct IdRows {
  /// Sorted schema.
  std::vector<std::string> vars;
  std::size_t rows = 0;
  /// rows x vars.size(), row-major; rdf::kInvalidTermId marks unbound.
  std::vector<rdf::TermId> cells;
  /// Resolves every bound cell; may be null while no cell is bound.
  const rdf::TermDictionary* dict = nullptr;

  [[nodiscard]] std::size_t size() const noexcept { return rows; }
  [[nodiscard]] bool empty() const noexcept { return rows == 0; }
  [[nodiscard]] const rdf::TermId* row(std::size_t r) const noexcept {
    return cells.data() + r * vars.size();
  }
  /// SolutionSet::byte_size() of the materialized rows.
  [[nodiscard]] std::size_t byte_size() const;
  /// The rows as Bindings, in order.
  [[nodiscard]] SolutionSet materialize() const;
};

/// `s` in the ids of `dict`, interning every term it binds (and refreshing
/// its term order); rows in order.
[[nodiscard]] IdRows intern_rows(const SolutionSet& s,
                                 rdf::TermDictionary& dict);

/// Join: O1 x O2.
[[nodiscard]] IdRows join(const IdRows& a, const IdRows& b);

/// LeftJoin without condition: join part then unmatched rows.
[[nodiscard]] IdRows left_join(const IdRows& a, const IdRows& b);

/// LeftJoin with OPTIONAL condition; `cond == nullptr` means `true`.
/// Condition evaluation is memoized on the tuple of ids the expression's
/// variables take in the merged row, so each distinct id tuple pays for
/// one string-space evaluation.
[[nodiscard]] IdRows left_join_conditioned(const IdRows& a, const IdRows& b,
                                           const ExprPtr& cond);

/// Filter with the same memoization as above.
[[nodiscard]] IdRows filter_set(const IdRows& in, const Expr& e);

/// The row indexes of `in` in canonical Binding order; equal rows keep
/// their input order.
[[nodiscard]] std::vector<std::size_t> canonical_order(const IdRows& in);

/// Distinct: canonical Binding order with duplicates removed.
[[nodiscard]] IdRows deduplicated(const IdRows& in);

/// Union: a's rows, then b's, over the union of both schemas.
[[nodiscard]] IdRows set_union(const IdRows& a, const IdRows& b);

/// Projection onto `vars` (any order; variables outside the schema drop).
[[nodiscard]] IdRows project(const IdRows& in,
                             const std::vector<std::string>& vars);

/// The rows at `picks`, in that order (slices and reorderings).
[[nodiscard]] IdRows rows_at(const IdRows& in,
                             const std::vector<std::size_t>& picks);

// The SolutionSet entry points: intern, run the kernel, materialize.
[[nodiscard]] SolutionSet vec_join(const SolutionSet& a, const SolutionSet& b);
[[nodiscard]] SolutionSet vec_left_join(const SolutionSet& a,
                                        const SolutionSet& b);
[[nodiscard]] SolutionSet vec_left_join_conditioned(const SolutionSet& a,
                                                    const SolutionSet& b,
                                                    const ExprPtr& cond);
[[nodiscard]] SolutionSet vec_filter_set(const SolutionSet& in, const Expr& e);
[[nodiscard]] SolutionSet vec_deduplicated(const SolutionSet& in);

/// A solution payload in id space: what the wire size of a payload depends
/// on (net::wire::charged_bytes sizes it without encoding). Ids are local
/// to the table, dense from 0.
struct IdTable {
  /// Sorted schema: the variables bound in at least one row.
  std::vector<std::string> vars;
  /// id -> its term, held by the sized set or the dictionary its ids came
  /// from; may list terms no row uses.
  std::vector<const rdf::Term*> terms;
  /// The distinct ids the rows use, in Term order (the wire dictionary).
  std::vector<rdf::TermId> by_rank;
  /// id -> its index in by_rank; meaningful only for ids listed there.
  std::vector<std::uint32_t> rank;
  std::size_t rows = 0;
  /// rows x vars.size(), row-major; rdf::kInvalidTermId marks unbound.
  std::vector<rdf::TermId> cells;
};

/// `rows` renumbered into table-local ids, rows in order, duplicates kept;
/// the terms point into its dictionary.
[[nodiscard]] IdTable id_table(const IdRows& rows);

/// Open-addressing index over tuples of `width` ids (linear probing over
/// hashed tuples, equal keys compared cell by cell): numbers the distinct
/// tuples densely from 0 and chains, per tuple, the rows added under it in
/// insertion order. Width 1 maps dictionary ids to table-local ids; state
/// is sized by the tuples held, never by the dictionary. Point lookups
/// only: it has no iterators, so its slot order cannot leak.
class IdTupleIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  explicit IdTupleIndex(std::size_t width = 0) : width_(width) {}

  /// The number of `key`, numbering it next if it is new; the flag tells.
  std::pair<std::uint32_t, bool> insert(const rdf::TermId* key) {
    if ((count_ + 1) * 2 > capacity_) grow();
    const std::size_t at = slot(key);
    if (slots_[at] != 0) return {slots_[at] - 1, false};
    slots_[at] = ++count_;
    for (std::size_t c = 0; c < width_; ++c) slots_[at + 1 + c] = key[c];
    return {count_ - 1, true};
  }
  /// Make room for `n` tuples without growing.
  void reserve(std::size_t n) {
    while (capacity_ < 2 * n) grow();
  }
  /// The number of `key`, or kNone (an empty slot holds 0, and 0 - 1 wraps
  /// to kNone).
  [[nodiscard]] std::uint32_t find(const rdf::TermId* key) const noexcept {
    return capacity_ == 0 ? kNone : slots_[slot(key)] - 1;
  }

  /// Chain row `r` (rows arrive in increasing order) to `key`'s tuple.
  void add_row(const rdf::TermId* key, std::uint32_t r);
  /// The rows chained to `key`'s tuple: first(key), then next() until kNone.
  [[nodiscard]] std::uint32_t first(const rdf::TermId* key) const noexcept {
    const std::uint32_t g = find(key);
    return g == kNone ? kNone : head_[g];
  }
  [[nodiscard]] std::uint32_t next(std::uint32_t r) const noexcept {
    return next_[r];
  }

 private:
  /// The offset of `key`'s slot, or of the empty slot it would take.
  /// (Plain loops: tuples are a few ids, too short for memcmp calls.)
  [[nodiscard]] std::size_t slot(const rdf::TermId* key) const noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::size_t c = 0; c < width_; ++c) {
      h = (h ^ key[c]) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    const std::size_t mask = capacity_ - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    for (;; i = (i + 1) & mask) {
      const rdf::TermId* s = slots_.data() + i * (width_ + 1);
      std::size_t c = 0;
      while (*s != 0 && c < width_ && s[1 + c] == key[c]) ++c;
      if (*s == 0 || c == width_) return i * (width_ + 1);
    }
  }
  /// Double the slots (at least 16) and re-place every tuple.
  void grow();

  std::size_t width_;
  std::uint32_t count_ = 0;   // distinct tuples numbered
  std::size_t capacity_ = 0;  // slots, a power of two
  // capacity_ slots of 1 + width ids: the tuple's number + 1 (0 = empty
  // slot), then the tuple itself, so a probe reads one place.
  std::vector<rdf::TermId> slots_;
  std::vector<std::uint32_t> head_;  // number -> first chained row
  std::vector<std::uint32_t> tail_;  // number -> last chained row
  std::vector<std::uint32_t> next_;  // row -> next row of its tuple
};

/// The keyed probe of every join over id rows (join, left_join and the
/// MergeAccumulator's carry join). The build rows are grouped by the ids
/// they take on the key columns in an IdTupleIndex; rows missing one of
/// those ids (possible after OPTIONAL) wait in a pool checked pairwise.
/// each() yields, for one probe row, its group in build-row order, then the
/// compatible pool rows; a probe row missing a key id is checked against
/// every build row. With no key column every row shares the empty key, so
/// each() yields the cross product.
class KeyedProbe {
 public:
  /// Group the `rows` rows of `cells` (row-major, `width` ids a row) on the
  /// columns `cols`.
  KeyedProbe(const rdf::TermId* cells, std::size_t rows, std::size_t width,
             std::vector<std::size_t> cols);

  /// The build columns grouped on.
  [[nodiscard]] const std::vector<std::size_t>& cols() const noexcept {
    return cols_;
  }

  /// Call emit(r) for every build row r compatible with `row`, whose ids on
  /// the key sit at the columns `row_cols` (paired with cols() in order).
  template <typename Emit>
  void each(const rdf::TermId* row, const std::vector<std::size_t>& row_cols,
            Emit&& emit) {
    bool full = true;
    for (std::size_t k = 0; k < key_.size(); ++k) {
      key_[k] = row[row_cols[k]];
      full = full && key_[k] != rdf::kInvalidTermId;
    }
    if (!full) {
      for (std::size_t r = 0; r < rows_; ++r) {
        if (compatible(r)) emit(r);
      }
      return;
    }
    // A full key equal on every key column is compatible outright.
    for (std::uint32_t r = groups_.first(key_.data()); r != IdTupleIndex::kNone;
         r = groups_.next(r)) {
      emit(r);
    }
    for (std::uint32_t r : pool_) {
      if (compatible(r)) emit(r);
    }
  }

 private:
  /// Build row `r` and the probe key bind no key column to different ids.
  [[nodiscard]] bool compatible(std::size_t r) const noexcept {
    const rdf::TermId* k = keys_.data() + r * key_.size();
    for (std::size_t c = 0; c < key_.size(); ++c) {
      if (k[c] != rdf::kInvalidTermId && key_[c] != rdf::kInvalidTermId &&
          k[c] != key_[c]) {
        return false;
      }
    }
    return true;
  }

  std::vector<std::size_t> cols_;
  std::size_t rows_ = 0;
  std::vector<rdf::TermId> keys_;  // rows_ x cols_: each build row's key
  // Point lookups by key only; each group chains its rows in build order.
  IdTupleIndex groups_;
  std::vector<std::uint32_t> pool_;  // build rows missing a key id
  std::vector<rdf::TermId> key_;     // the probe row's key
};

/// The running value of `deduplicated(set_union(acc, next))` folded over
/// every add(), kept in id space. Rows live as tuples of table-local ids in
/// insertion order with an IdTupleIndex used only for point lookups; the
/// raw size and the wire size of the variable and term sections are kept
/// incrementally, and take() sorts once. Provider rows and the carry
/// arrive as IdRows over the accumulator's dictionary and are only
/// renumbered, never interned.
class MergeAccumulator {
 public:
  /// `dict` resolves every id the accumulator is fed and ranks them by its
  /// term order; it must outlive the accumulator.
  explicit MergeAccumulator(const rdf::TermDictionary* dict) : dict_(dict) {}

  /// Join every later add() against `carry` (a chain that carries the
  /// partial result of earlier conjunction patterns). The carry is
  /// renumbered here once and grouped in a KeyedProbe at the first add() on
  /// the columns it shares with the provider rows; add(local) then merges
  /// join(carry, local) without materialising it. Replaces any earlier
  /// carry.
  void set_carry(const IdRows& carry);

  /// Merge one provider's scan; drops rows already held.
  void add(const IdRows& local);

  /// Distinct rows held.
  [[nodiscard]] std::size_t size() const noexcept { return table_.rows; }

  /// SolutionSet::byte_size() of the merged set.
  [[nodiscard]] std::size_t raw_bytes() const noexcept { return raw_; }

  /// Wire bytes of the merged set's variable and term sections, the part
  /// of net::wire's payload before the rows. Kept as the set grows: a term
  /// entry is front-coded against the term before it, so a merge costs the
  /// terms it inserts and re-costs only the held term after each run of
  /// them. (Every row's size depends on every rank, so net::wire adds the
  /// row section.)
  [[nodiscard]] std::size_t head_bytes() const noexcept {
    return vars_bytes_ + common::varint_size(table_.by_rank.size()) +
           terms_bytes_;
  }

  /// The merged set in id space (by_rank and rank are current).
  [[nodiscard]] const IdTable& table() const noexcept { return table_; }

  /// The distinct rows in canonical Binding order, in dictionary ids:
  /// exactly the folded deduplicated(set_union(...)); leaves the
  /// accumulator empty.
  [[nodiscard]] IdRows take();

 private:
  /// The carry in local ids plus its probe on the columns it shares with
  /// the provider rows (regrouped only if those columns change).
  struct Carry {
    std::vector<std::string> vars;
    std::size_t rows = 0;
    std::vector<rdf::TermId> cells;
    std::optional<KeyedProbe> probe;
  };

  /// `rows` renumbered into local ids (unbound cells stay unbound).
  [[nodiscard]] std::vector<rdf::TermId> local_cells(const IdRows& rows);
  /// Merge candidate rows over the sorted schema `vars` (local ids): joined
  /// with the carry first when there is one.
  void merge(const std::vector<std::string>& vars,
             const std::vector<rdf::TermId>& cells, std::size_t rows);
  /// Add candidate rows (over the sorted schema `vars`, local ids): grows
  /// the schema by the columns they bind, inserts the rows not held yet,
  /// and re-ranks the terms they bring.
  void absorb(const std::vector<std::string>& vars,
              const std::vector<rdf::TermId>& cells, std::size_t rows);
  /// The dictionary's term rank of local id `l`, read live: a refresh
  /// between adds shifts ranks (keeping their order), so none is cached.
  [[nodiscard]] std::uint32_t rank_of(rdf::TermId l) const noexcept {
    return dict_->rank(dict_ids_[l]);
  }
  /// Merge the new ids `fresh` (in Term order) into table_.by_rank,
  /// updating the term section size at the insertion points, and re-rank.
  void insert_ranks(const std::vector<rdf::TermId>& fresh);
  /// Re-place every row into a wider schema and re-index the rows.
  void widen(const std::vector<std::string>& vars);

  const rdf::TermDictionary* dict_;
  IdTable table_;
  IdTupleIndex from_dict_{1};           // dict_ id -> local id
  std::vector<rdf::TermId> dict_ids_;   // local id -> dict_ id
  std::size_t raw_ = SolutionSet{}.byte_size();
  std::size_t vars_bytes_ = common::varint_size(0);  // no variables yet
  std::size_t terms_bytes_ = 0;  // the term entries, without their count
  // The held rows; they keep their insertion order in table_.cells and
  // take() sorts canonically.
  IdTupleIndex held_;
  std::vector<char> live_;  // local id -> used by a held row
  std::optional<Carry> carry_;
};

}  // namespace ahsw::sparql
