#!/usr/bin/env bash
# Builds cmd/schedserver and the perfbench program from the checkout, then
# runs perfbench with the given arguments. Run it from the repository
# root:
#
#	bash perfbench/run.sh --workload ms --seed 1 --seconds 10 --trace 0
#
# Every build artefact, Go cache and daemon log stays under .bench_build
# in the checkout. Build output goes to stderr; perfbench's last stdout
# line is the JSON result.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/schedserver ]]; then
	echo "perfbench: run from the repository root; $root has no cmd/schedserver" >&2
	exit 1
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/config/go/telemetry"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on (its default is "local") every go command forks a
# detached sidecar that outlives it; off, go builds and exits alone.
echo off >"$out/config/go/telemetry/mode"

go build -o "$out/schedserver" ./cmd/schedserver >&2
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" -server "$out/schedserver" -workdir "$out" "$@"
