#!/usr/bin/env bash
# Builds the binaries under test and the benchmark harness from this
# checkout, then runs the harness. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fleet-day --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout (Go build cache and temp files included).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/orfserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; go.mod, cmd/orfserve or perfbench/go.mod is missing" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
# Keep the Go toolchain's caches, temp files and per-user state (module
# cache, telemetry) inside the checkout, and never reach for the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go build -o "$out/bin/" ./cmd/orfserve ./cmd/orfrouter ./cmd/orfload ./cmd/orfgen
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -work "$out/work" "$@"
