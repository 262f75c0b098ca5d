#!/bin/sh
# Builds the served-system benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   sh perfbench/run.sh --workload pipe-ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, logs,
# spans) lands under .bench_build/ in the current directory.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
commit=none
if [ -e .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo none)
fi
(cd perfbench && go build -buildvcs=false -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" --dir "$out" "$@"
