#!/usr/bin/env bash
# Builds the benchmark program from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload batch-web --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# files, the binary, stream state, span traces) stays under
# .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" "$@"
