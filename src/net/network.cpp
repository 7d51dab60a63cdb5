#include "net/network.hpp"

#include <cassert>

namespace ahsw::net {

std::string_view category_name(Category c) noexcept {
  switch (c) {
    case Category::kRouting: return "routing";
    case Category::kIndex: return "index";
    case Category::kQuery: return "query";
    case Category::kData: return "data";
    case Category::kResult: return "result";
  }
  // Exhaustiveness check: a new Category enumerator must be named above (and
  // kCategoryCount bumped), or exported stats would silently miscount under
  // "?". The switch has no default so -Wswitch flags the omission at compile
  // time; this assert catches corrupted/out-of-range values in debug runs.
  assert(false && "category_name: unnamed Category enumerator");
  return "?";
}

TrafficStats TrafficStats::delta_since(const TrafficStats& base) const {
  TrafficStats d;
  d.messages = messages - base.messages;
  d.bytes = bytes - base.bytes;
  d.raw_bytes = raw_bytes - base.raw_bytes;
  d.timeouts = timeouts - base.timeouts;
  for (int i = 0; i < kCategoryCount; ++i) {
    d.messages_by[i] = messages_by[i] - base.messages_by[i];
    d.bytes_by[i] = bytes_by[i] - base.bytes_by[i];
    d.timeouts_by[i] = timeouts_by[i] - base.timeouts_by[i];
  }
  return d;
}

void TrafficStats::accumulate(const TrafficStats& delta) noexcept {
  messages += delta.messages;
  bytes += delta.bytes;
  raw_bytes += delta.raw_bytes;
  timeouts += delta.timeouts;
  for (int i = 0; i < kCategoryCount; ++i) {
    messages_by[i] += delta.messages_by[i];
    bytes_by[i] += delta.bytes_by[i];
    timeouts_by[i] += delta.timeouts_by[i];
  }
}

SimTime Network::transmit(NodeAddress from, NodeAddress to, std::size_t wire,
                          std::size_t raw, SimTime now, Category category) {
  if (from == to) return now;  // node-local: no network involved
  stats_.record_message(category, wire, raw);
  SimTime arrival = now + model_.latency(wire);
  if (tracer_) {
    tracer_(MessageEvent{from, to, wire, raw, now, arrival, category});
  }
  return arrival;
}

SimTime Network::timeout(SimTime now, NodeAddress suspect, Category category) {
  stats_.record_timeout(category);
  SimTime gave_up = now + model_.timeout_ms;
  if (timeout_tracer_) {
    timeout_tracer_(TimeoutEvent{suspect, category, now, gave_up});
  }
  return gave_up;
}

}  // namespace ahsw::net
