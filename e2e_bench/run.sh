#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it from the
# repository root, passing every argument through:
#   bash e2e_bench/run.sh --workload fleet --seed 1 --seconds 35 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "e2e_bench: not a checkout of the repository (no dune-project or lib/)" >&2
  exit 1
fi
# Keep dune's shared build cache off so that nothing is written outside
# the checkout.
export DUNE_CACHE=disabled
exec dune exec --root . --display quiet -- ./e2e_bench/main.exe "$@"
