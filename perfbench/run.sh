#!/usr/bin/env bash
# Builds the loopback benchmark from source and runs it with the given
# flags, e.g.:
#
#   bash perfbench/run.sh --workload bulk-mem --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, cluster tmpdirs, span dumps) stays in
# .bench_build/ under the current directory. Build output goes to
# stderr; the last line of stdout is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -tmp "$build/tmp" -spans "$build/spans" "$@"
