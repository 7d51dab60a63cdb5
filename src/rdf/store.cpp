#include "rdf/store.hpp"

#include <limits>
#include <memory>

namespace ahsw::rdf {

namespace {
constexpr TermId kMin = 0;
constexpr TermId kMax = std::numeric_limits<TermId>::max();
}  // namespace

TripleStore::TripleStore()
    : own_(std::make_unique<TermDictionary>()), dict_(own_.get()) {}

TripleStore::TripleStore(TermDictionary& dict) : dict_(&dict) {}

TripleStore::TripleStore(const TripleStore& other)
    : spo_(other.spo_),
      pos_(other.pos_),
      osp_(other.osp_),
      own_(other.own_ ? std::make_unique<TermDictionary>(*other.own_)
                      : nullptr),
      dict_(own_ ? own_.get() : other.dict_) {}

bool TripleStore::insert(const Triple& t) {
  TermId s = dict_->intern(t.s);
  TermId p = dict_->intern(t.p);
  TermId o = dict_->intern(t.o);
  bool added = spo_.insert({s, p, o}).second;
  if (added) {
    pos_.insert({p, o, s});
    osp_.insert({o, s, p});
  }
  return added;
}

bool TripleStore::erase(const Triple& t) {
  auto s = dict_->find(t.s);
  auto p = dict_->find(t.p);
  auto o = dict_->find(t.o);
  if (!s || !p || !o) return false;
  bool removed = spo_.erase({*s, *p, *o}) > 0;
  if (removed) {
    pos_.erase({*p, *o, *s});
    osp_.erase({*o, *s, *p});
  }
  return removed;
}

bool TripleStore::contains(const Triple& t) const {
  auto s = dict_->find(t.s);
  auto p = dict_->find(t.p);
  auto o = dict_->find(t.o);
  if (!s || !p || !o) return false;
  return spo_.count({*s, *p, *o}) > 0;
}

bool TripleStore::encode(const TriplePattern& pattern, bool& s_bound,
                         bool& p_bound, bool& o_bound, TermId& s, TermId& p,
                         TermId& o) const {
  s_bound = p_bound = o_bound = false;
  s = p = o = kInvalidTermId;
  if (const Term* t = pattern.bound_s()) {
    auto id = dict_->find(*t);
    if (!id) return false;
    s = *id;
    s_bound = true;
  }
  if (const Term* t = pattern.bound_p()) {
    auto id = dict_->find(*t);
    if (!id) return false;
    p = *id;
    p_bound = true;
  }
  if (const Term* t = pattern.bound_o()) {
    auto id = dict_->find(*t);
    if (!id) return false;
    o = *id;
    o_bound = true;
  }
  return true;
}

void TripleStore::match_ids(
    const TriplePattern& pattern,
    const std::function<bool(TermId, TermId, TermId)>& fn) const {
  bool sb, pb, ob;
  TermId s, p, o;
  if (!encode(pattern, sb, pb, ob, s, p, o)) return;

  // Each case walks the ordering whose prefix covers the bound positions
  // and hands the index-specific key layout back in (s, p, o) order.

  if (sb && pb && ob) {
    if (spo_.count({s, p, o}) > 0) fn(s, p, o);
    return;
  }
  if (sb && pb) {
    for (auto it = spo_.lower_bound({s, p, kMin});
         it != spo_.end() && (*it)[0] == s && (*it)[1] == p; ++it) {
      if (!fn((*it)[0], (*it)[1], (*it)[2])) return;
    }
    return;
  }
  if (sb && ob) {
    for (auto it = osp_.lower_bound({o, s, kMin});
         it != osp_.end() && (*it)[0] == o && (*it)[1] == s; ++it) {
      if (!fn((*it)[1], (*it)[2], (*it)[0])) return;
    }
    return;
  }
  if (pb && ob) {
    for (auto it = pos_.lower_bound({p, o, kMin});
         it != pos_.end() && (*it)[0] == p && (*it)[1] == o; ++it) {
      if (!fn((*it)[2], (*it)[0], (*it)[1])) return;
    }
    return;
  }
  if (sb) {
    for (auto it = spo_.lower_bound({s, kMin, kMin});
         it != spo_.end() && (*it)[0] == s; ++it) {
      if (!fn((*it)[0], (*it)[1], (*it)[2])) return;
    }
    return;
  }
  if (pb) {
    for (auto it = pos_.lower_bound({p, kMin, kMin});
         it != pos_.end() && (*it)[0] == p; ++it) {
      if (!fn((*it)[2], (*it)[0], (*it)[1])) return;
    }
    return;
  }
  if (ob) {
    for (auto it = osp_.lower_bound({o, kMin, kMin});
         it != osp_.end() && (*it)[0] == o; ++it) {
      if (!fn((*it)[1], (*it)[2], (*it)[0])) return;
    }
    return;
  }
  for (const Key& k : spo_) {
    if (!fn(k[0], k[1], k[2])) return;
  }
}

void TripleStore::match(const TriplePattern& pattern,
                        const std::function<void(const Triple&)>& fn) const {
  match_ids(pattern, [&](TermId s, TermId p, TermId o) {
    fn(Triple{dict_->term(s), dict_->term(p), dict_->term(o)});
    return true;
  });
}

std::vector<Triple> TripleStore::match(const TriplePattern& pattern) const {
  std::vector<Triple> out;
  match(pattern, [&](const Triple& t) { out.push_back(t); });
  return out;
}

std::size_t TripleStore::count_matches(const TriplePattern& pattern) const {
  std::size_t n = 0;
  match_ids(pattern, [&](TermId, TermId, TermId) {
    ++n;
    return true;
  });
  return n;
}

void TripleStore::for_each(const std::function<void(const Triple&)>& fn) const {
  for (const Key& k : spo_) {
    fn(Triple{dict_->term(k[0]), dict_->term(k[1]), dict_->term(k[2])});
  }
}

}  // namespace ahsw::rdf
