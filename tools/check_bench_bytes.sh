#!/usr/bin/env bash
# Wire-byte regression gate for a committed bench series.
#
# Usage: check_bench_bytes.sh [series] [fresh.json]
#
# Compares a freshly emitted BENCH_<series>.json (second argument, or
# build/BENCH_<series>.json by default) against the committed baseline
# bench/baselines/BENCH_<series>.json. The series defaults to
# `throughput`; `primitive` gates the basic, chain, frequency-chain and
# broadcast strategies of bench_primitive; `churn` gates the availability
# sweep of bench_churn (run with --benchmark_filter='BM_Churn_Availability',
# the retry and failover paths); `parallel` gates the traced worker sweep of
# bench_parallel (run with --benchmark_filter='Traced', workers 1/2/4/8
# through the parallel batch driver). Both series must hold the same
# records, and for every record the data and result category bytes — the
# two solution-set-bearing categories, i.e. the traffic the wire codec
# compresses — must equal the baseline exactly. Simulated bytes are
# deterministic, so any difference, up or down, means an execution change
# moved traffic; re-baselining requires a deliberate commit of the new JSON
# that says why the bytes moved.
#
# Exit codes: 0 identical, 1 mismatch, 2 usage error.
set -uo pipefail
cd "$(dirname "$0")/.."

series="${1:-throughput}"
baseline="bench/baselines/BENCH_${series}.json"
fresh="${2:-${AHSW_BUILD_DIR:-build}/BENCH_${series}.json}"

if [ ! -f "${baseline}" ]; then
  echo "error: committed baseline ${baseline} missing" >&2
  exit 2
fi
if [ ! -f "${fresh}" ]; then
  echo "error: fresh series ${fresh} missing (run bench_${series} first," >&2
  echo "or pass the JSON path as the second argument)" >&2
  exit 2
fi

python3 - "${baseline}" "${fresh}" <<'PY'
import json
import sys

def payload_bytes(record):
    by = record.get("traffic_by_category", {})
    return {cat: by.get(cat, {}).get("bytes", 0) for cat in ("data", "result")}

def load(path):
    with open(path) as f:
        series = json.load(f)
    return {r["bench"]: payload_bytes(r) for r in series.get("records", [])}

base = load(sys.argv[1])
fresh = load(sys.argv[2])

if not base.keys() & fresh.keys():
    print("error: no common bench records between baseline and fresh series",
          file=sys.stderr)
    sys.exit(2)

failed = False
for bench in sorted(base.keys() | fresh.keys()):
    if bench not in fresh:
        print(f"{bench:34s} MISSING from the fresh series")
        failed = True
        continue
    if bench not in base:
        print(f"{bench:34s} NEW record with no baseline")
        failed = True
        continue
    for cat in ("data", "result"):
        b, f = base[bench][cat], fresh[bench][cat]
        verdict = "ok" if f == b else "MISMATCH"
        failed |= f != b
        print(f"{bench:34s} {cat:6s} baseline={b:9d} fresh={f:9d} {verdict}")

if failed:
    print("error: wire payload bytes differ from the committed baseline; if "
          f"the change is intentional, re-baseline {sys.argv[1]} in the same "
          "commit", file=sys.stderr)
    sys.exit(1)
print("wire payload bytes identical to the committed baseline")
PY
