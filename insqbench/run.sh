#!/usr/bin/env bash
# Builds insqd and the benchmark program from the checkout this is run in,
# then runs the benchmark with the given arguments:
#
#   bash insqbench/run.sh --workload plane-fleet --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build and run artefact stays in
# .bench_build/ under that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
# Any other go command first forks a detached telemetry child that can
# outlive this script; "go telemetry off" is the one that does not.
go telemetry off
if [[ ! -f go.mod || ! -d cmd/insqd ]]; then
	echo "run.sh: no insqd source under $root; run it from the repository root" >&2
	exit 2
fi
go build -o "$out/insqd" ./cmd/insqd
(cd "$root/insqbench" && go build -o "$out/insqbench" .)
exec "$out/insqbench" -insqd "$out/insqd" -out "$out" "$@"
