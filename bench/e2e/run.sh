#!/bin/sh
# Builds hyperenclave-verify and the benchmark harness from this checkout,
# then runs one workload:
#   sh bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
# The last line of stdout is the JSON result (README.md).  Run it from the
# root of the checkout.
set -eu

if [ ! -f dune-project ] || [ ! -f bin/hyperenclave_verify.ml ] || [ ! -d lib ]; then
  echo "bench/e2e/run.sh: no verifier sources here; run it from the root of a checkout" >&2
  exit 2
fi

# the build stays inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/hyperenclave_verify.exe bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe bench \
  --bin ./_build/default/bin/hyperenclave_verify.exe "$@"
