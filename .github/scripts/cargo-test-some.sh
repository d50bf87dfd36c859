#!/usr/bin/env bash
# Run `cargo test "$@"` and fail unless it ran at least one test. A name
# filter that matches nothing makes cargo exit 0 with "0 passed", so a
# renamed or moved test would otherwise turn its named CI step into a
# silent no-op.
set -euo pipefail
out=$(cargo test "$@" 2>&1) || { printf '%s\n' "$out"; exit 1; }
printf '%s\n' "$out"
passed=$(printf '%s\n' "$out" |
  sed -n 's/^test result: ok\. \([0-9][0-9]*\) passed.*/\1/p' |
  awk '{ n += $1 } END { print n + 0 }')
if [ "$passed" -eq 0 ]; then
  echo "error: \`cargo test $*\` ran no test" >&2
  exit 1
fi
