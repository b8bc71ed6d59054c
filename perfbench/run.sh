#!/usr/bin/env bash
# Builds gar and the benchmark from source into .bench_build (toolchain
# caches included, so nothing is written outside the checkout), then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload geo-2k-cold --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/gar ]]; then
	echo "perfbench: run from the repository root: go.mod and cmd/gar not found in $(pwd)" >&2
	exit 1
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# With telemetry on, the go command starts a detached sidecar process
# (its own session) that can outlive the build; `go telemetry off` is
# the one go command that starts none, and it turns it off for the rest.
go telemetry off
go build -o "$out/gar" ./cmd/gar
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -gar "$out/gar" -work "$out/runs" "$@"
