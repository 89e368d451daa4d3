#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload sweepd --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, temp stores, span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
bin="$out/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# Rebuild only when a source is newer than the binary. go build rewrites
# the binary even when nothing changed, and writing back those pages
# during the next run's set-up would be measured as set-up time.
if [ ! -x "$bin" ] || [ -n "$(find "$root" \( -path "$root/.bench_build" -o -path "$root/.git" \) -prune -o \
	\( -name '*.go' -o -name 'go.mod' -o -name '*.json' \) -newer "$bin" -print -quit)" ]; then
	(cd "$root/perfbench" && go build -o "$bin" .)
fi
exec "$bin" "$@"
