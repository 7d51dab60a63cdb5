#!/usr/bin/env bash
# Coverage sweep over src/: the dead-code measurement behind ROADMAP's
# "same behaviour, least code" aim.
#
# Makes a --coverage Debug build of the whole tree and of the perfbench
# binary, then runs what the project runs: the CI bench smokes, every bench
# binary once (bench_parallel filtered to its traced and hot-initiator
# runs, since its full E14-P sweep takes minutes in this build), every
# examples/ binary, `perfbench --selftest`, every perfbench workload at
# --trace 0 and --trace 1, the shell demo script and the shell's `lint`;
# then the tier-1 suite
# (plain and with AHSW_AUDIT=1). It reads the counters with
# `gcov --json-format` before and after the tier-1 suite, summing each src/
# function's hits over every object that compiles it, and prints each
# function that no run reached, each function only the tier-1 suite
# reached, and the totals:
#
#   zero-hit src/ functions: <n> of <total>
#   never-run src/ lines: <n> of <total>
#   test-only src/ functions: <n>
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

# collect <out.json>: the hits so far of every src/ function and line,
# summed over every object that compiles it.
collect() {
  python3 - "$root/src" "$dir" "$1" <<'EOF'
import json
import os
import subprocess
import sys

src = os.path.realpath(sys.argv[1]) + os.sep
build, out_path = sys.argv[2], sys.argv[3]
functions = {}  # "file:start_line name" -> hits
lines = {}      # "file:line" -> hits

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
                # A header reached through a module's include root
                # (build/src/<m>/include/<m>/<m>/x.hpp) is recorded under
                # that symlinked path; resolve it to the file in src/.
                path = os.path.realpath(os.path.join(cwd, f["file"]))
                if not path.startswith(src):
                    continue
                rel = "src/" + path[len(src):]
                for fn in f["functions"]:
                    key = "%s:%d %s" % (rel, fn["start_line"],
                                        fn["demangled_name"])
                    functions[key] = (functions.get(key, 0) +
                                      fn["execution_count"])
                for ln in f["lines"]:
                    key = "%s:%d" % (rel, ln["line_number"])
                    lines[key] = lines.get(key, 0) + ln["count"]

with open(out_path, "w") as out:
    json.dump({"functions": functions, "lines": lines}, out)
EOF
}

echo "coverage: building into $dir" >&2
quiet cmake -S . -B "$dir/tree" "${flags[@]}"
quiet cmake --build "$dir/tree" -j "$jobs"
quiet cmake -S perfbench -B "$dir/perfbench" "${flags[@]}"
quiet cmake --build "$dir/perfbench" --target perfbench -j "$jobs"
# Counters of this sweep only.
find "$dir" -name '*.gcda' -delete

echo "coverage: bench smokes" >&2
(
  cd "$dir/tree"
  quiet ./bench/bench_primitive --audit
  quiet ./bench/bench_throughput --audit
  quiet ./bench/bench_throughput --audit --workers 4
  quiet ./bench/bench_churn --audit \
    --benchmark_filter='BM_Churn_Availability'
  quiet ./bench/bench_churn --benchmark_filter='BM_Repair|BM_Rejoin|BM_WriteChurn|BM_GracefulLeave'
  quiet ./bench/bench_parallel --audit --benchmark_filter='Traced'
)

echo "coverage: every bench binary once, every example" >&2
(
  cd "$dir/tree"
  for bench in bench/bench_*; do
    [[ -x $bench && -f $bench ]] || continue
    if [[ $bench == bench/bench_parallel ]]; then
      quiet "$bench" --benchmark_filter='Traced|HotInitiators'
    else
      quiet "$bench" --benchmark_min_time=0
    fi
  done
  cd "$root"
  for example in examples/*.cpp; do
    quiet "$dir/tree/examples/$(basename "$example" .cpp)"
  done
)

echo "coverage: perfbench selftest and workloads (1 s each)" >&2
quiet "$dir/perfbench/perfbench" --selftest
for workload in mixed-bulk mixed-parallel point-zipf churn-rw; do
  for trace in 0 1; do
    quiet "$dir/perfbench/perfbench" --workload "$workload" \
      --seconds 1 --trace "$trace"
  done
done

echo "coverage: shell demo and lint" >&2
quiet "$dir/tree/tools/ahsw_shell" examples/data/shell_demo.txt
printf 'lint\nquit\n' | quiet "$dir/tree/tools/ahsw_shell"
collect "$dir/without_tests.json"

echo "coverage: tier-1 suite, plain and audited" >&2
quiet ctest --test-dir "$dir/tree" -j "$jobs" --output-on-failure
AHSW_AUDIT=1 quiet ctest --test-dir "$dir/tree" -j "$jobs" \
  --output-on-failure
collect "$dir/with_tests.json"

python3 - "$dir/without_tests.json" "$dir/with_tests.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    without_tests = json.load(f)["functions"]
with open(sys.argv[2]) as f:
    full = json.load(f)
functions, lines = full["functions"], full["lines"]


def order(key):
    where, name = key.split(" ", 1)
    path, line = where.rsplit(":", 1)
    return (path, int(line), name)


unhit = sorted((k for k, hits in functions.items() if hits == 0), key=order)
test_only = sorted((k for k, hits in functions.items()
                    if hits > 0 and without_tests.get(k, 0) == 0), key=order)
for key in unhit:
    print(key)
print("reached only by the tier-1 suite:")
for key in test_only:
    print("  " + key)
dead_lines = sum(1 for hits in lines.values() if hits == 0)
print("zero-hit src/ functions: %d of %d" % (len(unhit), len(functions)))
print("never-run src/ lines: %d of %d" % (dead_lines, len(lines)))
print("test-only src/ functions: %d" % len(test_only))
EOF
