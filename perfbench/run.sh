#!/usr/bin/env bash
# Builds the benchmark and the repro-serve daemon from source, then runs one
# benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim-suite --seed 1 --seconds 14 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache included). The last line of stdout is
# the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The go command keeps telemetry under the user config directory.
export XDG_CONFIG_HOME="$out/config"

(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/repro-serve" repro/cmd/repro-serve
) >&2

exec "$out/perfbench" -serve-bin "$out/repro-serve" -work-dir "$out" "$@"
