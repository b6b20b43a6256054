#!/usr/bin/env bash
# run.sh — build vqbench from this checkout and run it with the given
# flags. Run it from the repository root:
#
#   bash cmd/vqbench/run.sh --workload bulk-wide --seed 3 --seconds 10 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build/ so a run writes nothing outside the checkout; the go
# command's own config and telemetry go there too (XDG_CONFIG_HOME).
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/vqserve ] || [ ! -d internal/serve ]; then
  echo "vqbench: run from the root of a vqprobe checkout (cmd/vqserve and internal/serve are missing here)" >&2
  exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOPROXY=off
go build -C cmd/vqbench -o "$build/vqbench" .
exec "$build/vqbench" "$@"
