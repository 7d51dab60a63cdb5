#!/usr/bin/env bash
# Static-analysis gate: clang-tidy (profile in .clang-tidy) and cppcheck over
# src/, tools/ and bench/, then ahsw-lint (the self-hosted domain linter,
# built from src/lint/) over the same tree. The drift gate on the
# rule-catalogue table embedded in docs/static_analysis.md is the ctest
# `lint.rules_docs` (tools/check_rules_docs.sh). The dynamic
# counterpart of this gate is the invariant auditor (src/check/,
# AHSW_AUDIT=1); see docs/static_analysis.md for both halves.
#
# Exit codes: non-zero on any finding. When an external tool is not
# installed the step is skipped with a notice — unless AHSW_STATIC_STRICT=1
# (set in CI), in which case a missing tool is itself a failure. ahsw-lint
# is built from this repo, so it always runs and always gates.
set -uo pipefail
cd "$(dirname "$0")/.."

strict="${AHSW_STATIC_STRICT:-0}"
status=0

missing_tool() {
  if [ "${strict}" = "1" ]; then
    echo "error: $1 not found and AHSW_STATIC_STRICT=1" >&2
    status=1
  else
    echo "note: $1 not found; skipping (set AHSW_STATIC_STRICT=1 to fail)"
  fi
}

# Sources under analysis: the libraries, the tools that link them, and the
# bench mains (self-rolled harness, no framework macros to trip on). Tests
# stay out of scope for cppcheck/tidy — GTest macros are too noisy — but
# ahsw-lint covers bench/ regardless via its own tree walk.
mapfile -t sources < <(find src tools bench -name '*.cpp' | sort)

# Always configure: the external tools read compile_commands.json from the
# analysis build, and ahsw-lint is built inside it.
build_dir=build-analysis
cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null || exit 1

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy (${#sources[@]} files) =="
  # Strict mode (CI) escalates the whole bug-prone and concurrency families
  # on top of the WarningsAsErrors set baked into .clang-tidy.
  tidy_args=()
  if [ "${strict}" = "1" ]; then
    tidy_args+=(--warnings-as-errors='bugprone-*,concurrency-*')
  fi
  if ! clang-tidy -p "${build_dir}" --quiet "${tidy_args[@]}" "${sources[@]}"; then
    status=1
  fi
else
  missing_tool clang-tidy
fi

if command -v cppcheck >/dev/null 2>&1; then
  echo "== cppcheck =="
  # The per-module header checks (src/CMakeLists.txt) compile each header
  # alone; the sources that include it already cover it, so leave them out.
  mkdir -p "${build_dir}/cppcheck"
  python3 - "${build_dir}/compile_commands.json" \
    > "${build_dir}/cppcheck/compile_commands.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    commands = json.load(f)
json.dump([c for c in commands if "/header_check/" not in c["file"]],
          sys.stdout, indent=1)
EOF
  if ! cppcheck --project="${build_dir}/cppcheck/compile_commands.json" \
      --enable=warning,performance,portability \
      --suppress='*:/usr/*' \
      --inline-suppr --quiet --error-exitcode=1; then
    status=1
  fi
else
  missing_tool cppcheck
fi

echo "== ahsw-lint =="
if cmake --build "${build_dir}" --target ahsw_lint_tool -j > /dev/null; then
  # JSON diagnostics land next to the analysis build; CI uploads them as
  # an artifact so findings are inspectable without re-running the job.
  if ! "${build_dir}/tools/ahsw_lint" --root . \
      --json "${build_dir}/ahsw_lint.json"; then
    status=1
  fi
else
  echo "error: failed to build ahsw_lint_tool" >&2
  status=1
fi

exit "${status}"
