#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash bench/run.sh --workload mixed-mem --seed 1 --seconds 20 --trace 0
#
# Everything it writes — the Go build cache, the binary, durable-cold's files,
# a traced run's spans — stays under .bench_build in the checkout. Outside a
# checkout of the repository the build fails and nothing is printed.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
# The go command keeps telemetry counters under the config directory and, on
# its first run with a fresh one, starts a detached child in a session of its
# own to collate them; that child outlives this script. Mode "off" starts none.
export XDG_CONFIG_HOME="$build/config"
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/bench" ./bench
exec "$build/bench" -workdir "$build/work" "$@"
