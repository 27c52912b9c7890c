#!/usr/bin/env bash
# Builds the application benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload helr-step --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, the Go build cache
# and the traced run's spans stay under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

rev=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.revision=$rev" -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
