#!/usr/bin/env bash
# Builds the benchmark from the repository source next to this directory and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload tpcc-contended --seed 1 --seconds 30 --trace 0
#
# Everything it writes (build cache, binary, commit logs, span files) stays
# under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root, next to go.mod and perfbench/" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
# No network and no files outside the checkout: the module needs nothing
# beyond the repository itself and the standard library.
# XDG_CONFIG_HOME keeps the go command's telemetry counters there too.
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
