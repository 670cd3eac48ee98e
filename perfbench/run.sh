#!/usr/bin/env bash
# Build the analyzer and the benchmark from source, then run one
# workload, or all three in turn. From the repository root:
#
#   bash perfbench/run.sh --workload perfect_batch --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh all --seed 1 --seconds 20 --trace 0
#
# Workloads: perfect_batch, serve_warm, serve_mixed. The last line of
# a workload's standard output is its JSON result; build output goes
# to stderr.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a dda checkout" >&2
  exit 2
fi

# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/ddtest.exe ./perfbench/bench.exe 1>&2

if [ "${1:-}" = all ]; then
  shift
  for w in perfect_batch serve_warm serve_mixed; do
    ./_build/default/perfbench/bench.exe --workload "$w" "$@"
  done
  exit 0
fi
exec ./_build/default/perfbench/bench.exe "$@"
