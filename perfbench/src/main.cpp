// perfbench: the repository benchmark's driver binary. run.py builds it and
// turns its output into the benchmark's report; it can also be run directly:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// The last line of standard output is one JSON object: whether every check
// passed, the operations attempted and failed, every metric with its unit,
// and a note per metric (sample counts, ratio bases).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::RunResult;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + json_string(items[i]);
  }
  return out + "]";
}

void print_result(const RunResult& r) {
  std::string metrics, notes;
  for (const auto& [name, m] : r.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
    if (!m.note.empty()) {
      if (!notes.empty()) notes += ", ";
      notes += json_string(name) + ": " + json_string(m.note);
    }
  }
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(r.input_digest));
  std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.ops << ", \"failed\": " << r.failed
            << ", \"metrics\": {" << metrics << "}, \"notes\": {" << notes
            << "}, \"failures\": " << json_list(r.failures)
            << ", \"flags\": " << json_list(r.flags)
            << ", \"input_digest\": \"" << digest << "\"}" << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench --workload <mixed-bulk|mixed-parallel|"
               "point-zipf|churn-rw> --seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return perfbench::run_selftest() == 0 ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      const auto w = perfbench::parse_workload(value);
      if (!w) return usage();
      cfg.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (!(cfg.seconds > 0)) return usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      cfg.trace = value == "1";
      continue;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (!have_workload) return usage();
  try {
    print_result(perfbench::run_workload(cfg));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
