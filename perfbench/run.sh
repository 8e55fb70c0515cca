#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#
#   bash perfbench/run.sh --workload small-gp --seed 1 --seconds 40 --trace 0
#
# Build output goes to stderr; the last line on stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# The shared dune cache lives outside the checkout; keep the build inside.
dune build --root . --cache=disabled ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
