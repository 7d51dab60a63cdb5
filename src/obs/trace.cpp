#include "obs/trace.hpp"

#include <algorithm>
#include <cassert>

namespace ahsw::obs {

std::string_view span_kind_name(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kQuery: return "query";
    case SpanKind::kPlan: return "plan";
    case SpanKind::kIndexLookup: return "index-lookup";
    case SpanKind::kRingRoute: return "ring-route";
    case SpanKind::kPattern: return "pattern";
    case SpanKind::kSubQueryShip: return "subquery-ship";
    case SpanKind::kLocalExec: return "local-exec";
    case SpanKind::kChainHop: return "chain-hop";
    case SpanKind::kShip: return "ship";
    case SpanKind::kJoinSite: return "join-site";
    case SpanKind::kPostProcess: return "post-process";
    case SpanKind::kTimeout: return "timeout";
    case SpanKind::kRepair: return "repair";
    case SpanKind::kRetry: return "retry";
    case SpanKind::kCache: return "cache";
  }
  // Same exhaustiveness contract as net::category_name: a new SpanKind must
  // be named here or exported phase breakdowns would miscount under "?".
  assert(false && "span_kind_name: unnamed SpanKind enumerator");
  return "?";
}

QueryTrace::~QueryTrace() { unbind(); }

void QueryTrace::bind(net::Network& network) {
  if (net_ == &network) return;
  unbind();
  net_ = &network;
  prev_tracer_ = network.tracer();
  prev_timeout_tracer_ = network.timeout_tracer();
  network.set_tracer([this](const net::MessageEvent& e) {
    on_message(e);
    if (prev_tracer_) prev_tracer_(e);
  });
  network.set_timeout_tracer([this](const net::TimeoutEvent& e) {
    on_timeout(e);
    if (prev_timeout_tracer_) prev_timeout_tracer_(e);
  });
}

void QueryTrace::unbind() {
  if (net_ == nullptr) return;
  net_->set_tracer(prev_tracer_);
  net_->set_timeout_tracer(prev_timeout_tracer_);
  net_ = nullptr;
  prev_tracer_ = nullptr;
  prev_timeout_tracer_ = nullptr;
}

SpanId QueryTrace::open(SpanKind kind, std::string label, net::SimTime at,
                        net::NodeAddress site) {
  Span s;
  s.id = static_cast<SpanId>(spans_.size());
  s.parent = active();
  s.kind = kind;
  s.label = std::move(label);
  s.site = site;
  s.begin = at;
  s.end = at;
  if (s.parent == kNoSpan) {
    roots_.push_back(s.id);
  } else {
    spans_[s.parent].children.push_back(s.id);
  }
  SpanId id = s.id;
  spans_.push_back(std::move(s));
  stack_.push_back(id);
  return id;
}

void QueryTrace::close(SpanId id, net::SimTime at) {
  assert(!stack_.empty() && stack_.back() == id &&
         "span scopes must nest (close the innermost open span first)");
  Span& s = spans_[id];
  s.end = std::max({s.end, s.begin, at});
  stack_.pop_back();
  if (s.parent != kNoSpan) {
    Span& p = spans_[s.parent];
    p.end = std::max(p.end, s.end);
  }
}

void QueryTrace::reopen(SpanId id) {
  assert(id < spans_.size() && "reopen: unknown span id");
  stack_.push_back(id);
}

SpanId QueryTrace::adopt_subtree(const QueryTrace& donor, SpanId root) {
  assert(stack_.empty() && "adopt_subtree: no span may be open here");
  assert(root < donor.spans_.size() && "adopt_subtree: unknown donor root");
  // Copy in donor preorder; ids here are assigned densely in visit order,
  // so children stay in their original relative order.
  struct Pending {
    SpanId donor_id;
    SpanId parent;  // already-adopted parent in *this* trace
  };
  std::vector<Pending> work{{root, kNoSpan}};
  SpanId new_root = kNoSpan;
  while (!work.empty()) {
    // Depth-first, children pushed in reverse so they pop left-to-right.
    Pending cur = work.back();
    work.pop_back();
    const Span& src = donor.spans_[cur.donor_id];
    Span s = src;
    s.id = static_cast<SpanId>(spans_.size());
    s.parent = cur.parent;
    s.children.clear();
    if (cur.parent == kNoSpan) {
      new_root = s.id;
      roots_.push_back(s.id);
    } else {
      spans_[cur.parent].children.push_back(s.id);
    }
    SpanId id = s.id;
    spans_.push_back(std::move(s));
    for (std::size_t i = src.children.size(); i > 0; --i) {
      work.push_back(Pending{src.children[i - 1], id});
    }
  }
  return new_root;
}

void QueryTrace::clear() {
  assert(stack_.empty() && "clear() with open spans would orphan scopes");
  spans_.clear();
  stack_.clear();
  roots_.clear();
  unattributed_bytes_ = 0;
  unattributed_raw_bytes_ = 0;
  unattributed_messages_ = 0;
  unattributed_timeouts_ = 0;
}

void QueryTrace::add_peer(Span& s, net::NodeAddress addr) {
  if (addr == net::kNoAddress) return;
  auto it = std::lower_bound(s.peers.begin(), s.peers.end(), addr);
  if (it == s.peers.end() || *it != addr) s.peers.insert(it, addr);
}

void QueryTrace::on_message(const net::MessageEvent& e) {
  if (stack_.empty()) {
    ++unattributed_messages_;
    unattributed_bytes_ += e.bytes;
    unattributed_raw_bytes_ += e.raw_bytes;
    return;
  }
  Span& s = spans_[stack_.back()];
  ++s.messages;
  s.bytes += e.bytes;
  s.raw_bytes += e.raw_bytes;
  auto c = static_cast<std::size_t>(e.category);
  ++s.messages_by[c];
  s.bytes_by[c] += e.bytes;
  s.end = std::max(s.end, e.arrives_at);
  add_peer(s, e.from);
  add_peer(s, e.to);
}

void QueryTrace::on_timeout(const net::TimeoutEvent& e) {
  if (stack_.empty()) {
    ++unattributed_timeouts_;
    return;
  }
  // A timeout becomes its own leaf span: the failure-detection wait shows up
  // in the tree (not just as a counter), labelled with the suspect node.
  Span leaf;
  leaf.id = static_cast<SpanId>(spans_.size());
  leaf.parent = stack_.back();
  leaf.kind = SpanKind::kTimeout;
  leaf.label = "timeout waiting on node " + std::to_string(e.suspect);
  leaf.site = e.suspect;
  leaf.begin = e.at;
  leaf.end = e.gave_up_at;
  leaf.timeouts = 1;
  leaf.timeouts_by[static_cast<std::size_t>(e.category)] = 1;
  add_peer(leaf, e.suspect);
  Span& parent = spans_[leaf.parent];
  parent.children.push_back(leaf.id);
  parent.end = std::max(parent.end, e.gave_up_at);
  spans_.push_back(std::move(leaf));
}

std::uint64_t QueryTrace::total_bytes() const noexcept {
  std::uint64_t n = 0;
  for (const Span& s : spans_) n += s.bytes;
  return n;
}

std::uint64_t QueryTrace::total_messages() const noexcept {
  std::uint64_t n = 0;
  for (const Span& s : spans_) n += s.messages;
  return n;
}

std::uint64_t QueryTrace::total_timeouts() const noexcept {
  std::uint64_t n = 0;
  for (const Span& s : spans_) n += s.timeouts;
  return n;
}

namespace {
template <typename Get>
std::uint64_t subtree_sum(const std::vector<Span>& spans, SpanId id,
                          Get get) {
  std::uint64_t n = 0;
  std::vector<SpanId> work{id};
  while (!work.empty()) {
    SpanId cur = work.back();
    work.pop_back();
    const Span& s = spans.at(cur);
    n += get(s);
    work.insert(work.end(), s.children.begin(), s.children.end());
  }
  return n;
}
}  // namespace

std::uint64_t QueryTrace::subtree_bytes(SpanId id) const {
  return subtree_sum(spans_, id, [](const Span& s) { return s.bytes; });
}

std::uint64_t QueryTrace::subtree_messages(SpanId id) const {
  return subtree_sum(spans_, id, [](const Span& s) { return s.messages; });
}

std::uint64_t QueryTrace::subtree_timeouts(SpanId id) const {
  return subtree_sum(spans_, id, [](const Span& s) { return s.timeouts; });
}

}  // namespace ahsw::obs
