#!/usr/bin/env bash
# Builds the benchmark and the greengpud daemon from this checkout's
# sources, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# The Go build cache, binaries and run artefacts (spans files, daemon
# state directories) all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# With telemetry on, the go command forks a detached upload process that
# outlives this script; turn it off for this checkout's config directory.
printf off >"$out/config/go/telemetry/mode"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/greengpud" ./cmd/greengpud
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" -daemon-bin "$out/greengpud" "$@"
