#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload grid_dml --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build artifact and cache lives
# under .bench_build/ in that root, so nothing is written elsewhere.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0

(cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
