#!/usr/bin/env bash
# Builds the perfvar benchmark from source and runs it with the given
# flags, e.g.
#
#   bash bench/run.sh --workload archive-fd4 --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, temporary inputs, result and span files)
# goes under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp"

export GOCACHE="${build}/go-build"
export GOMODCACHE="${build}/gomod"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "${root}/bench" && go build -o "${build}/perfbench" .)
# Flush what the build wrote, so that write-back of a fresh build cache
# does not run during the measurement.
sync
exec "${build}/perfbench" "$@"
