// The ahsw-lint engine: run the rule catalogue (rules.hpp) over files or a
// whole source tree and aggregate the result into a report with
// human-readable and JSON renderings.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lint/rules.hpp"

namespace ahsw::lint {

/// Version stamp of the `ahsw_lint.json` diagnostic rendering. Bump when a
/// field changes meaning or shape, so diff tooling never has to guess.
inline constexpr int kJsonSchemaVersion = 1;

struct LintReport {
  std::vector<Diagnostic> diagnostics;  // post-suppression, sorted per file
  std::size_t files_scanned = 0;
  std::size_t suppressed = 0;
  std::map<std::string, std::size_t> by_rule;  // kept diagnostics per rule

  [[nodiscard]] bool clean() const { return diagnostics.empty(); }

  /// One diagnostic per line, then a summary line. Stable: golden tests and
  /// the CI log both pin this format.
  [[nodiscard]] std::string to_string() const;

  /// Machine-readable rendering for the CI artifact.
  [[nodiscard]] std::string to_json() const;
};

/// Lint a single in-memory source. `path` is the repo-relative label used
/// for whitelists and diagnostics.
[[nodiscard]] LintReport lint_source(std::string path, std::string_view text);

/// Lint files on disk. Paths are repo-relative; `root` locates them.
/// Throws std::runtime_error when a file cannot be read.
[[nodiscard]] LintReport lint_files(const std::string& root,
                                    const std::vector<std::string>& rel_paths);

/// Lint every .cpp/.hpp under the given top-level directories of `root`
/// (default: the directories the gate covers), in sorted path order.
[[nodiscard]] LintReport lint_tree(
    const std::string& root,
    const std::vector<std::string>& dirs = {"src", "tools", "bench"});

}  // namespace ahsw::lint
