#!/usr/bin/env python3
"""Repository benchmark: build the perfbench driver from source, run one
workload, check its answers, and report every metric by name and unit.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to .bench_build/perfbench in
the root (Release, via CMake). With --trace 0 the report carries the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exit status is 0 when a result was
produced; a build or run failure exits 1 without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout, env=None):
    """Run a build step with its output on stderr, so stdout stays the report."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                          timeout=timeout)
    return proc.returncode == 0


def build():
    # Compiler temporaries stay inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, env):
            return False
    return run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs], BUILD_TIMEOUT_S, env)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def report(args, result, declared):
    print("perfbench workload=%s seed=%d seconds=%s trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("ops=%d ops_failed=%d" % (result["attempted"], result["failed"]))
    notes = result.get("notes", {})
    for m in declared:
        got = result["metrics"][m["name"]]
        print("  %-36s %16.6f %-10s %s" % (m["name"], got["value"], got["unit"],
                                           notes.get(m["name"], "")))
    for f in result.get("failures", []):
        print("FAILED: " + f.replace("\n", " | ")[:2000])
    for f in result.get("flags", []):
        print("FLAG: " + f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    try:
        if not build():
            log("perfbench: build failed")
            return 1
        if args.selftest:
            return subprocess.run([BINARY, "--selftest"],
                                  timeout=RUN_TIMEOUT_S).returncode
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: driver exited with %d" % proc.returncode)
        return 1
    result = json.loads(lines[-1])

    declared = declared_metrics(args.trace == 1)
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("perfbench: metric %s missing or not in %s" % (m["name"], m["unit"]))
            return 1
    report(args, result, declared)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
