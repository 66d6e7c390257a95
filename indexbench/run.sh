#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#   bash indexbench/run.sh --workload lookup-uniform --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Build outputs, the Go build cache, data
# directories and span dumps all stay under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out" GOTOOLCHAIN=local
# The go command keeps its telemetry counters under the user config dir.
(cd "$root/indexbench" && XDG_CONFIG_HOME="$out/config" go build -o "$out/indexbench" .) >&2
exec "$out/indexbench" -workdir "$out/indexbench-work" "$@"
