#!/usr/bin/env bash
# Builds emibench and runs it from the repository root with the given
# arguments, e.g.
#
#   bash cmd/emibench/run.sh --workload jobs --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binaries,
# server data directories and traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

go -C "$root/cmd/emibench" build -o "$out/bin/emibench" . >&2
exec "$out/bin/emibench" -root "$root" "$@"
