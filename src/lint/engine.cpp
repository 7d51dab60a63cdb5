#include "lint/engine.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/strings.hpp"

namespace ahsw::lint {

using common::json_escape;

namespace {

namespace fs = std::filesystem;

[[nodiscard]] std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    throw std::runtime_error("ahsw-lint: cannot read " + p.string());
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

[[nodiscard]] bool lintable(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

void merge(LintReport* into, LintReport part) {
  into->files_scanned += part.files_scanned;
  into->suppressed += part.suppressed;
  for (Diagnostic& d : part.diagnostics) {
    ++into->by_rule[d.rule];
    into->diagnostics.push_back(std::move(d));
  }
}

}  // namespace

std::string LintReport::to_string() const {
  std::ostringstream out;
  for (const Diagnostic& d : diagnostics) {
    out << d.to_string() << "\n";
  }
  if (clean()) {
    out << "ahsw-lint: clean (" << suppressed << " suppressed) over "
        << files_scanned << " file(s)\n";
  } else {
    out << "ahsw-lint: " << diagnostics.size() << " diagnostic(s) ("
        << suppressed << " suppressed) over " << files_scanned
        << " file(s)\n";
  }
  return out.str();
}

std::string LintReport::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"tool\": \"ahsw-lint\",\n";
  out << "  \"schema_version\": " << kJsonSchemaVersion << ",\n";
  out << "  \"files_scanned\": " << files_scanned << ",\n";
  out << "  \"suppressed\": " << suppressed << ",\n";
  out << "  \"diagnostic_count\": " << diagnostics.size() << ",\n";
  out << "  \"by_rule\": {";
  bool first = true;
  for (const auto& [rule, count] : by_rule) {
    out << (first ? "" : ", ") << "\"" << json_escape(rule)
        << "\": " << count;
    first = false;
  }
  out << "},\n";
  out << "  \"diagnostics\": [";
  first = true;
  for (const Diagnostic& d : diagnostics) {
    out << (first ? "\n" : ",\n");
    out << "    {\"rule\": \"" << json_escape(d.rule) << "\", \"file\": \""
        << json_escape(d.file) << "\", \"line\": " << d.line
        << ", \"message\": \"" << json_escape(d.message) << "\"}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "]\n";
  out << "}\n";
  return out.str();
}

LintReport lint_source(std::string path, std::string_view text) {
  LintReport report;
  report.files_scanned = 1;
  SourceFile file = tokenize(std::move(path), text);
  std::vector<Diagnostic> raw = run_rules(file);
  std::size_t suppressed = 0;
  std::vector<Diagnostic> kept =
      apply_suppressions(file, std::move(raw), &suppressed);
  report.suppressed = suppressed;
  for (Diagnostic& d : kept) {
    ++report.by_rule[d.rule];
    report.diagnostics.push_back(std::move(d));
  }
  return report;
}

LintReport lint_files(const std::string& root,
                      const std::vector<std::string>& rel_paths) {
  LintReport report;
  for (const std::string& rel : rel_paths) {
    std::string text = read_file(fs::path(root) / rel);
    merge(&report, lint_source(rel, text));
  }
  return report;
}

namespace {

[[nodiscard]] std::vector<std::string> collect_tree(
    const std::string& root, const std::vector<std::string>& dirs) {
  std::vector<std::string> rel_paths;
  for (const std::string& dir : dirs) {
    fs::path top = fs::path(root) / dir;
    if (!fs::exists(top)) continue;
    for (const fs::directory_entry& e :
         fs::recursive_directory_iterator(top)) {
      if (!e.is_regular_file() || !lintable(e.path())) continue;
      rel_paths.push_back(
          fs::path(e.path()).lexically_relative(root).generic_string());
    }
  }
  // Deterministic scan order regardless of directory enumeration order.
  std::sort(rel_paths.begin(), rel_paths.end());
  return rel_paths;
}

}  // namespace

LintReport lint_tree(const std::string& root,
                     const std::vector<std::string>& dirs) {
  return lint_files(root, collect_tree(root, dirs));
}

}  // namespace ahsw::lint
