#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it:
#
#   bash hostbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. The build, its caches and the span logs
# of traced runs stay under .bench_build/hostbench in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build/hostbench"
mkdir -p "$out/tmp"
(
	cd hostbench
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
		GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/hostbench" .
)
exec "$out/hostbench" -spans-dir "$out" "$@"
