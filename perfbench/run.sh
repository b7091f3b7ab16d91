#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, the binary, spans, served-workload shards) stays under
# .bench_build in that directory; no network is used.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are needed)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOENV=off
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"

go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
