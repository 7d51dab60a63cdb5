#include "sparql/solution.hpp"

#include <algorithm>
#include <iterator>

namespace ahsw::sparql {

namespace {

/// Iterator to the slot for `var`, or end.
template <typename Slots>
auto find_slot(Slots& slots, std::string_view var) {
  return std::lower_bound(
      slots.begin(), slots.end(), var,
      [](const auto& slot, std::string_view v) { return slot.first < v; });
}

}  // namespace

const rdf::Term* Binding::get(std::string_view var) const noexcept {
  auto it = find_slot(slots_, var);
  if (it == slots_.end() || it->first != var) return nullptr;
  return &it->second;
}

void Binding::set(std::string_view var, rdf::Term term) {
  auto it = find_slot(slots_, var);
  if (it != slots_.end() && it->first == var) {
    it->second = std::move(term);
  } else {
    slots_.insert(it, {std::string(var), std::move(term)});
  }
}

std::size_t Binding::byte_size() const noexcept {
  std::size_t n = 2;  // row framing
  for (const auto& [name, term] : slots_) {
    n += name.size() + 1 + term.byte_size();
  }
  return n;
}

std::string Binding::to_string() const {
  std::string out = "{";
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (i != 0) out += ", ";
    out += slots_[i].first + "->" + slots_[i].second.to_string();
  }
  out += "}";
  return out;
}

std::size_t SolutionSet::byte_size() const noexcept {
  std::size_t n = kSetFraming;
  for (const Binding& b : rows_) n += b.byte_size();
  return n;
}

void SolutionSet::normalize() { std::sort(rows_.begin(), rows_.end()); }

std::string SolutionSet::to_string() const {
  std::string out = "[";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (i != 0) out += ", ";
    out += rows_[i].to_string();
  }
  out += "]";
  return out;
}

SolutionSet set_union(const SolutionSet& a, const SolutionSet& b) {
  SolutionSet out;
  out.rows().reserve(a.size() + b.size());
  for (const Binding& r : a.rows()) out.add(r);
  for (const Binding& r : b.rows()) out.add(r);
  return out;
}

std::vector<std::string> variables_of(const SolutionSet& s) {
  std::vector<std::string> vars;
  std::vector<std::string> names;
  auto name_of = [](const auto& slot) -> const std::string& {
    return slot.first;
  };
  for (const Binding& r : s.rows()) {
    // Rows of one pattern bind the same variables: merge only when a row
    // binds one not seen yet (both lists are sorted).
    if (std::ranges::includes(vars, r.slots(), {}, {}, name_of)) continue;
    names.clear();
    for (const auto& [name, _] : r.slots()) names.push_back(name);
    std::vector<std::string> merged;
    std::set_union(vars.begin(), vars.end(), names.begin(), names.end(),
                   std::back_inserter(merged));
    vars = std::move(merged);
  }
  return vars;
}

}  // namespace ahsw::sparql
