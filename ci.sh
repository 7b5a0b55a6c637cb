#!/bin/sh
# The full CI gate: `dune build @ci` — build, tests, lint, the
# whole-program effect check and the fault, trace, bench and server
# smokes, each defined once in the root dune file — plus the bench
# --help smoke.
set -eu
cd "$(dirname "$0")"

echo "== dune build @ci"
dune build @ci

echo "== bench --help smoke"
dune exec bench/main.exe -- --help > /dev/null

echo "ci: all checks passed"
