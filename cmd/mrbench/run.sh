#!/usr/bin/env bash
# Builds mrbench from the checkout it is run in, then runs it with the
# given flags. Run it from the repository root:
#
#   bash cmd/mrbench/run.sh [-workload all|<name>] [-seed S] [-runs N] [-o out.json]
#
# The Go build cache, temporary files and the toolchain's telemetry
# counters go under .bench_build/, so a run writes nothing outside the
# checkout.
set -euo pipefail
out="$PWD/.bench_build/mrbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
go -C cmd/mrbench build -o "$out/mrbench" .
exec "$out/mrbench" "$@"
