#!/usr/bin/env bash
# Print the number of lines in the `.cpp`/`.hpp` files under src/, the
# figure ROADMAP.md's "least code" aim tracks from change to change.
#
# Usage: tools/src_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find src \( -name '*.cpp' -o -name '*.hpp' \) -print0 | xargs -0 cat | wc -l
