#!/usr/bin/env bash
# Build dtsched and the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload fleet-hf|cached-ccsd|serve-hf \
#     [--seed N] [--seconds S] [--trace 0|1]
#
# Run it from the root of a checkout. Build output goes to standard
# error; the last line of standard output is the result as one JSON
# object. Generated inputs and span files go under _perfbench/.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a dtsched checkout (dune-project, lib/ and bin/ not found)" >&2
  exit 2
fi

# no shared dune cache: the build writes only inside the checkout
DUNE_CACHE=disabled dune build --root . ./bin/dtsched.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe run "$@"
