#!/usr/bin/env bash
# Build racedetect and sfbench from source in the current directory (the
# repository root), then run sfbench with the given arguments, e.g.
#   bash benchmark/run.sh --workload live-access --seed 1 --seconds 12 --trace 0
# The build shares no cache outside the checkout.
set -euo pipefail
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/racedetect.exe benchmark/sfbench.exe >&2
exec ./_build/default/benchmark/sfbench.exe "$@"
