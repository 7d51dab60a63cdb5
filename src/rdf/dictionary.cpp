#include "rdf/dictionary.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace ahsw::rdf {

TermId TermDictionary::intern(const Term& t) {
  auto [it, inserted] =
      ids_.try_emplace(t, static_cast<TermId>(terms_.size()));
  if (inserted) terms_.push_back(t);
  return it->second;
}

std::optional<TermId> TermDictionary::find(const Term& t) const {
  auto it = ids_.find(t);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

void TermDictionary::refresh_order() {
  const std::size_t held = by_rank_.size();
  if (held == terms_.size()) return;
  auto term_less = [&](TermId x, TermId y) { return terms_[x] < terms_[y]; };
  std::vector<TermId> fresh(terms_.size() - held);
  std::iota(fresh.begin(), fresh.end(), static_cast<TermId>(held));
  std::sort(fresh.begin(), fresh.end(), term_less);
  // Each fresh id finds its place by binary search, so the merge compares
  // k log N terms and moves N integers.
  std::vector<TermId> merged;
  merged.reserve(terms_.size());
  auto from = by_rank_.begin();
  for (TermId id : fresh) {
    auto at = std::lower_bound(from, by_rank_.end(), id, term_less);
    merged.insert(merged.end(), from, at);
    merged.push_back(id);
    from = at;
  }
  merged.insert(merged.end(), from, by_rank_.end());
  by_rank_ = std::move(merged);
  rank_.resize(terms_.size());
  for (std::size_t k = 0; k < by_rank_.size(); ++k) {
    rank_[by_rank_[k]] = static_cast<std::uint32_t>(k);
  }
}

void TermDictionary::require_order() const {
  if (by_rank_.size() != terms_.size()) {
    throw std::logic_error(
        "TermDictionary: term order is stale (refresh_order() missed)");
  }
}

}  // namespace ahsw::rdf
