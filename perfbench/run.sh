#!/usr/bin/env bash
# Builds perfbench from source and runs it; every argument is passed on.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload accept-ts --seed 1 --seconds 20 --trace 0
# The build, the Go caches and traced runs' spans all go under
# .bench_build/perfbench, so nothing is written outside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
