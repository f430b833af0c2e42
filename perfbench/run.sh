#!/usr/bin/env bash
# Build the service binary and the benchmark program from source, then run
# one benchmark invocation:
#
#   bash perfbench/run.sh --workload fleet-idct --seed 1 --seconds 20 --trace 0
#
# Must be started from the repository root.  Build output goes to stderr;
# the last line on stdout is the result object.  Everything the run writes
# lands in this checkout (_build/ and .perfbench_state/).
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the repository root (dune-project, lib/ and bin/ are missing)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/dse.exe ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe --dse ./_build/default/bin/dse.exe "$@"
