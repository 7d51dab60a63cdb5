#include "obs/json.hpp"

#include <cerrno>   // program_invocation_short_name (GNU)
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/strings.hpp"

namespace ahsw::obs {

namespace {

std::string json_string(std::string_view s) {
  return "\"" + common::json_escape(s) + "\"";
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(6);
  os.setf(std::ios::fixed);
  os << v;
  return os.str();
}

/// {"routing": {"messages": n, "bytes": n}, ...} — zero categories omitted.
std::string by_category_object(const net::TrafficStats& t) {
  std::string out = "{";
  bool first = true;
  for (int c = 0; c < net::kCategoryCount; ++c) {
    if (t.messages_by[c] == 0 && t.bytes_by[c] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += json_string(net::category_name(static_cast<net::Category>(c)));
    out += ": {\"messages\": " + std::to_string(t.messages_by[c]) +
           ", \"bytes\": " + std::to_string(t.bytes_by[c]) + "}";
  }
  out += "}";
  return out;
}

std::string timeouts_by_category_object(const net::TrafficStats& t) {
  std::string out = "{";
  bool first = true;
  for (int c = 0; c < net::kCategoryCount; ++c) {
    if (t.timeouts_by[c] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += json_string(net::category_name(static_cast<net::Category>(c)));
    out += ": " + std::to_string(t.timeouts_by[c]);
  }
  out += "}";
  return out;
}

std::string default_experiment_name() {
#ifdef __GLIBC__
  std::string name = program_invocation_short_name;
#else
  std::string name = "bench";
#endif
  if (name.rfind("bench_", 0) == 0) name.erase(0, 6);
  return name;
}

}  // namespace

std::vector<PhaseCost> phase_rollup(const QueryTrace& trace) {
  std::uint64_t spans[kSpanKindCount] = {};
  net::TrafficStats traffic[kSpanKindCount];
  for (const Span& s : trace.spans()) {
    const auto k = static_cast<std::size_t>(s.kind);
    ++spans[k];
    traffic[k].accumulate(s.traffic);
  }
  std::vector<PhaseCost> out;
  for (int k = 0; k < kSpanKindCount; ++k) {
    if (spans[k] == 0) continue;
    const net::TrafficStats& t = traffic[k];
    out.push_back(
        PhaseCost{std::string(span_kind_name(static_cast<SpanKind>(k))),
                  spans[k], t.messages, t.bytes, t.timeouts});
  }
  return out;
}

BenchSink& BenchSink::instance() {
  // ahsw-lint: allow(D4) the process-wide bench JSON sink, written only by
  // single-threaded bench mains, never by a parallel batch's workers.
  static BenchSink sink;
  return sink;
}

BenchSink::~BenchSink() { flush(); }

void BenchSink::record(BenchRecord r) {
  auto it = records_.find(r.bench);
  if (it == records_.end()) {
    order_.push_back(r.bench);
    records_.emplace(r.bench, std::move(r));
  } else {
    it->second = std::move(r);
  }
}

void BenchSink::write(std::ostream& os) const {
  os << "{\n  \"experiment\": " << json_string(default_experiment_name())
     << ",\n  \"records\": [";
  bool first_record = true;
  for (const std::string& name : order_) {
    const BenchRecord& r = records_.at(name);
    if (!first_record) os << ",";
    first_record = false;
    os << "\n    {\"bench\": " << json_string(r.bench);
    os << ", \"queries\": " << r.queries;
    os << ", \"messages\": " << r.traffic.messages;
    os << ", \"bytes\": " << r.traffic.bytes;
    os << ", \"raw_bytes\": " << r.traffic.raw_bytes;
    os << ", \"timeouts\": " << r.traffic.timeouts;
    os << ", \"response_ms\": " << json_number(r.response_ms);
    os << ", \"traffic_by_category\": " << by_category_object(r.traffic);
    os << ", \"timeouts_by_category\": "
       << timeouts_by_category_object(r.traffic);
    os << ", \"phases\": [";
    for (std::size_t i = 0; i < r.phases.size(); ++i) {
      const PhaseCost& p = r.phases[i];
      if (i > 0) os << ", ";
      os << "{\"phase\": " << json_string(p.phase)
         << ", \"spans\": " << p.spans << ", \"messages\": " << p.messages
         << ", \"bytes\": " << p.bytes << ", \"timeouts\": " << p.timeouts
         << "}";
    }
    os << "]";
    if (!r.extra.empty()) {
      os << ", \"extra\": {";
      bool first_extra = true;
      for (const auto& [key, value] : r.extra) {
        if (!first_extra) os << ", ";
        first_extra = false;
        os << json_string(key) << ": " << json_number(value);
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
}

void BenchSink::flush() {
  if (records_.empty()) return;
  // Single-threaded bench-main startup read; no concurrent setenv.
  const char* env = std::getenv("AHSW_BENCH_JSON");  // NOLINT(concurrency-mt-unsafe)
  const std::string path =
      env != nullptr ? env : "BENCH_" + default_experiment_name() + ".json";
  std::ofstream f(path);
  if (!f) return;  // benches must not fail because the CWD is read-only
  write(f);
}

}  // namespace ahsw::obs
