#!/usr/bin/env bash
# Parallel-safety ledger drift gate.
#
# Compares a freshly generated ahsw_effects.json (argument, or regenerated
# here when omitted) against the committed baseline tools/ahsw_effects.json.
# The ledger is line-less and deduplicated, so a diff means the shared
# mutable surface itself changed — a new touch point, a removed one, or a
# declaration flip — and the baseline must be regenerated and re-reviewed:
#
#   build/tools/ahsw_lint --root . --effects --effects-json tools/ahsw_effects.json
#
# Exit codes: 0 in sync, 1 drift, 2 usage/build error.
set -uo pipefail
cd "$(dirname "$0")/.."

baseline=tools/ahsw_effects.json
fresh="${1:-}"

if [ -z "${fresh}" ]; then
  build_dir="${AHSW_BUILD_DIR:-build}"
  if [ ! -x "${build_dir}/tools/ahsw_lint" ]; then
    echo "error: ${build_dir}/tools/ahsw_lint not built (pass a ledger path or set AHSW_BUILD_DIR)" >&2
    exit 2
  fi
  fresh="$(mktemp)"
  trap 'rm -f "${fresh}"' EXIT
  # The tree may have lint findings; drift checking only needs the ledger,
  # so the lint exit code is ignored here (lint.self gates it separately).
  "${build_dir}/tools/ahsw_lint" --root . --effects \
    --effects-json "${fresh}" > /dev/null || true
fi

if [ ! -f "${fresh}" ]; then
  echo "error: generated ledger ${fresh} missing" >&2
  exit 2
fi

# Schema pin: a regenerated baseline at any other version means the tool
# and this gate disagree about the format.
if ! grep -q '"schema_version": 3' "${fresh}"; then
  echo "error: generated ledger is not schema_version 3; rebuild ahsw_lint" >&2
  exit 2
fi

if ! diff -u "${baseline}" "${fresh}"; then
  echo "error: ${baseline} is out of date with the tree; regenerate it with" >&2
  echo "  <build>/tools/ahsw_lint --root . --effects --effects-json ${baseline}" >&2
  echo "and review the new shared-state touch points." >&2
  exit 1
fi

# Sharded-or-merged gate: every dispatch-reachable sync surface must state
# its parallel-safety discipline — `shard=<how>` (workers never share the
# state) or `merge=<how>` (mutations are logged and replayed on the master
# in (time, query, task) order). A dispatch surface naming neither is a
# mutation the parallel batch driver (src/dqp/parallel.cpp) has no story
# for, so the build fails until one is chosen and annotated.
spec=tools/ahsw_shared_state.spec
unsafe="$(sed 's/#.*//' "${spec}" | awk -F: '
  $1 ~ /^surface / {
    n = split($1, w, /[ \t]+/)
    dispatch = 0; safe = 0
    for (i = 1; i <= n; i++) {
      if (w[i] == "dispatch") dispatch = 1
      if (w[i] ~ /^shard=./ || w[i] ~ /^merge=./) safe = 1
    }
    if (dispatch && !safe) print w[2]
  }')"
if [ -n "${unsafe}" ]; then
  echo "error: dispatch surfaces without a shard=/merge= discipline in ${spec}:" >&2
  echo "${unsafe}" | sed 's/^/  /' >&2
  echo "annotate each with shard=<how> or merge=<how> (see the spec header)." >&2
  exit 1
fi
echo "ledger in sync (${baseline}); all dispatch surfaces sharded or merged"
