#include "dqp/state_log.hpp"

#include <utility>

namespace ahsw::dqp {

using Kind = StateAction::Kind;

namespace {

[[nodiscard]] StateAction action(Kind kind, net::SimTime when,
                                 net::NodeAddress initiator, chord::Key key) {
  StateAction a;
  a.kind = kind;
  a.when = when;
  a.initiator = initiator;
  a.key = key;
  return a;
}

}  // namespace

Applied apply(overlay::HybridOverlay& ov, const StateAction& a) {
  switch (a.kind) {
    case Kind::kCacheLookup:
      return {ov.cache_for(a.initiator).lookup(a.key, a.when), false};
    case Kind::kCacheInsert:
      return {nullptr, ov.cache_for(a.initiator)
                           .insert(a.key, a.providers, a.index_node, a.when)};
    case Kind::kSubscribe:
      ov.subscribe_invalidations(a.key, a.initiator);
      break;
    case Kind::kCacheInvalidate:
      return {nullptr, ov.cache_for(a.initiator).invalidate(a.key)};
    case Kind::kReportDead:
      (void)ov.report_dead_provider(a.initiator, a.key, a.dead, a.when);
      break;
  }
  return {};
}

Applied RecordingOverlay::perform(StateAction&& a) {
  const Applied applied = apply(*ov_, a);
  if (log_ != nullptr) append(std::move(a));
  return applied;
}

void RecordingOverlay::append(StateAction&& a) {
  a.at = fire_.at;
  a.qid = fire_.query;
  a.task = fire_.task;
  a.seq = seq_++;
  log_->push_back(std::move(a));
}

const overlay::CachedRow* RecordingOverlay::cache_lookup(
    net::NodeAddress initiator, chord::Key key, net::SimTime when) {
  return perform(action(Kind::kCacheLookup, when, initiator, key)).row;
}

bool RecordingOverlay::cache_insert(net::NodeAddress initiator,
                                    chord::Key key,
                                    overlay::HybridOverlay::Located& loc) {
  StateAction a =
      action(Kind::kCacheInsert, loc.completed_at, initiator, key);
  a.index_node = loc.index_node;
  a.providers = std::move(loc.providers);
  const bool leased = apply(*ov_, a).changed;
  if (log_ != nullptr) {
    loc.providers = a.providers;
    append(std::move(a));
  } else {
    loc.providers = std::move(a.providers);
  }
  return leased;
}

void RecordingOverlay::subscribe(net::NodeAddress initiator, chord::Key key,
                                 net::SimTime when) {
  (void)perform(action(Kind::kSubscribe, when, initiator, key));
}

bool RecordingOverlay::cache_invalidate(net::NodeAddress initiator,
                                        chord::Key key, net::SimTime when) {
  return perform(action(Kind::kCacheInvalidate, when, initiator, key)).changed;
}

void RecordingOverlay::report_dead(net::NodeAddress reporter, chord::Key key,
                                   net::NodeAddress dead, net::SimTime when) {
  StateAction a = action(Kind::kReportDead, when, reporter, key);
  a.dead = dead;
  (void)perform(std::move(a));
}

}  // namespace ahsw::dqp
