#!/usr/bin/env bash
# The benchmark contract's entry point (BENCHMARK.json "command"): build
# the ledger program from source inside the checkout, then run it with the
# driver's arguments. Everything the build writes — the binary, Go's build
# cache, its config and telemetry files — stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
env GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local \
	go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
