// ahsw-lint driver.
//
// Usage:
//   ahsw_lint [--root DIR] [--json FILE] [--rules] [paths...]
//
// With no paths, lints every .cpp/.hpp under src/, tools/ and bench/ of
// the root (the CI gate configuration). Paths, when given, are
// root-relative files to lint instead. `--rules` prints the rule catalogue
// as the markdown table docs/static_analysis.md embeds
// (tools/check_rules_docs.sh gates drift) and exits. Exit codes: 0 clean,
// 1 diagnostics found, 2 usage or I/O error.
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint/engine.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--root DIR] [--json FILE] [--rules] [paths...]\n";
  return 2;
}

void print_rules() {
  std::cout << "| Rule | Family | Enforces |\n";
  std::cout << "|------|--------|----------|\n";
  for (const ahsw::lint::RuleInfo& r : ahsw::lint::rule_catalogue()) {
    std::cout << "| " << r.id << " | " << r.family << " | " << r.summary
              << " |\n";
  }
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "ahsw-lint: cannot write " << path << "\n";
    return false;
  }
  out << text;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string json_path;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--rules") {
      print_rules();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  try {
    ahsw::lint::LintReport report =
        paths.empty() ? ahsw::lint::lint_tree(root)
                      : ahsw::lint::lint_files(root, paths);
    if (!json_path.empty() && !write_text(json_path, report.to_json())) {
      return 2;
    }
    std::cout << report.to_string();
    return report.clean() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
