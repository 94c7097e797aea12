#!/usr/bin/env bash
# Builds crowdperf from source and runs it with bench/perf as the working
# directory. The build cache, the binary and everything a run writes
# (bench/perf/out/) stay inside the checkout; nothing is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(cd "$here/../.." && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
cd "$here"
commit="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
go build -ldflags "-X main.commit=$commit" -o "$build/crowdperf" .
exec "$build/crowdperf" "$@"
