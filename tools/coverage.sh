#!/usr/bin/env bash
# Coverage sweep over src/: the dead-code measurement behind ROADMAP's
# "same behaviour, least code" aim.
#
# Makes a --coverage Debug build of the whole tree and of the perfbench
# binary, then runs what the project runs: the tier-1 suite (plain and with
# AHSW_AUDIT=1), the CI bench smokes, `perfbench --selftest` and every
# perfbench workload at --trace 0 and --trace 1. It then reads the counters
# with `gcov --json-format` and prints each src/ function that no run
# reached (its hits summed over every object that compiles it), followed by
# the totals:
#
#   zero-hit src/ functions: <n> of <total>
#   never-run src/ lines: <n> of <total>
#
# Usage: tools/coverage.sh [build-dir]      (default: build-coverage)
# Needs the gcov that matches the compiler (GCC) and python3.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
dir=${1:-$root/build-coverage}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
cd "$root"

jobs=$(nproc)
if (( jobs > 4 )); then jobs=4; fi
flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=--coverage
       -DCMAKE_EXE_LINKER_FLAGS=--coverage)

# Run one step with its output kept in $dir/step.log, shown only on failure.
quiet() {
  "$@" >"$dir/step.log" 2>&1 || { cat "$dir/step.log" >&2; return 1; }
}

echo "coverage: building into $dir" >&2
quiet cmake -S . -B "$dir/tree" "${flags[@]}"
quiet cmake --build "$dir/tree" -j "$jobs"
quiet cmake -S perfbench -B "$dir/perfbench" "${flags[@]}"
quiet cmake --build "$dir/perfbench" --target perfbench -j "$jobs"
# Counters of this sweep only.
find "$dir" -name '*.gcda' -delete

echo "coverage: tier-1 suite, plain and audited" >&2
quiet ctest --test-dir "$dir/tree" -j "$jobs" --output-on-failure
AHSW_AUDIT=1 quiet ctest --test-dir "$dir/tree" -j "$jobs" \
  --output-on-failure

echo "coverage: bench smokes" >&2
(
  cd "$dir/tree"
  quiet ./bench/bench_primitive --audit
  quiet ./bench/bench_throughput --audit
  quiet ./bench/bench_throughput --audit --workers 4
  quiet ./bench/bench_churn --audit \
    --benchmark_filter='BM_Churn_Availability'
  quiet ./bench/bench_churn --benchmark_filter='BM_Repair|BM_Rejoin'
  quiet ./bench/bench_parallel --audit --benchmark_filter='Traced'
)

echo "coverage: perfbench selftest and workloads (1 s each)" >&2
quiet "$dir/perfbench/perfbench" --selftest
for workload in mixed-bulk mixed-parallel point-zipf churn-rw; do
  for trace in 0 1; do
    quiet "$dir/perfbench/perfbench" --workload "$workload" \
      --seconds 1 --trace "$trace"
  done
done

python3 - "$root/src" "$dir" <<'EOF'
import json
import os
import subprocess
import sys

src, build = sys.argv[1] + os.sep, sys.argv[2]
functions = {}  # (file, start line, name) -> hits over every object
lines = {}      # (file, line) -> hits over every object

for dirpath, _, names in os.walk(build):
    for name in sorted(names):
        if not name.endswith(".gcno"):
            continue
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", name], cwd=dirpath,
            capture_output=True, text=True, check=True).stdout
        for doc in out.splitlines():
            if not doc.startswith("{"):
                continue
            data = json.loads(doc)
            cwd = data.get("current_working_directory", dirpath)
            for f in data["files"]:
                path = os.path.normpath(os.path.join(cwd, f["file"]))
                if not path.startswith(src):
                    continue
                rel = "src/" + path[len(src):]
                for fn in f["functions"]:
                    key = (rel, fn["start_line"], fn["demangled_name"])
                    hits = fn["execution_count"]
                    functions[key] = functions.get(key, 0) + hits
                for ln in f["lines"]:
                    key = (rel, ln["line_number"])
                    lines[key] = lines.get(key, 0) + ln["count"]

unhit = sorted(k for k, hits in functions.items() if hits == 0)
for rel, line, name in unhit:
    print("%s:%d %s" % (rel, line, name))
dead_lines = sum(1 for hits in lines.values() if hits == 0)
print("zero-hit src/ functions: %d of %d" % (len(unhit), len(functions)))
print("never-run src/ lines: %d of %d" % (dead_lines, len(lines)))
EOF
