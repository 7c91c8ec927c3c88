#!/usr/bin/env bash
# Builds priveletd and the benchmark from the source tree this script
# sits in, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload publish --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the run's scratch files all stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# Compile time is not part of any metric: build first, then measure.
go build -o "$out/bin/priveletd" ./cmd/priveletd
(cd perfbench && go build -o "$out/bin/perfbench" .)
# The commit for the provenance line; a checkout without git history is
# identified by a hash of its Go sources instead.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git rev-parse HEAD 2>/dev/null) ||
	commit="tree-$(find . -path ./.bench_build -prune -o -name '*.go' -type f -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
export PERFBENCH_COMMIT="$commit"
exec "$out/bin/perfbench" --bin "$out/bin/priveletd" --work "$out/run" "$@"
