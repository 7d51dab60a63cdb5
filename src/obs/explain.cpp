#include "obs/explain.hpp"

#include <sstream>

namespace ahsw::obs {

namespace {

void format_time(std::ostream& os, net::SimTime t) {
  // Fixed with one decimal keeps columns readable; times are milliseconds.
  std::ostringstream tmp;
  tmp.setf(std::ios::fixed);
  tmp.precision(1);
  tmp << t;
  os << tmp.str();
}

void render_span(const QueryTrace& trace, SpanId id, int depth,
                 std::vector<std::string>& out) {
  const Span& s = trace.span(id);
  std::ostringstream os;
  for (int i = 0; i < depth; ++i) os << "  ";
  os << span_kind_name(s.kind);
  if (!s.label.empty()) os << " " << s.label;
  if (s.site != net::kNoAddress) os << " @" << s.site;
  os << "  [";
  format_time(os, s.begin);
  os << " -> ";
  format_time(os, s.end);
  os << " ms]";
  const net::TrafficStats& t = s.traffic;
  if (t.messages > 0) {
    os << "  " << t.messages << " msg, " << t.bytes << " B (";
    bool first = true;
    for (int c = 0; c < net::kCategoryCount; ++c) {
      if (t.bytes_by[c] == 0 && t.messages_by[c] == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << net::category_name(static_cast<net::Category>(c)) << " "
         << t.bytes_by[c] << "B";
    }
    os << ")";
  }
  if (t.timeouts > 0) {
    os << "  " << t.timeouts << " timeout" << (t.timeouts > 1 ? "s" : "");
  }
  if (!s.children.empty()) {
    const net::TrafficStats sub = trace.subtree(id);
    os << "  {subtree " << sub.messages << " msg, " << sub.bytes << " B";
    if (sub.timeouts > 0) {
      os << ", " << sub.timeouts << " timeout" << (sub.timeouts > 1 ? "s" : "");
    }
    os << "}";
  }
  out.push_back(os.str());
  for (SpanId child : s.children) {
    render_span(trace, child, depth + 1, out);
  }
}

}  // namespace

std::vector<std::string> explain_lines(const QueryTrace& trace, SpanId root) {
  std::vector<std::string> out;
  render_span(trace, root, 0, out);
  return out;
}

std::string explain(const QueryTrace& trace) {
  std::string out;
  for (SpanId root : trace.roots()) {
    for (const std::string& line : explain_lines(trace, root)) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

}  // namespace ahsw::obs
