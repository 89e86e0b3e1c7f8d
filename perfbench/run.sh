#!/usr/bin/env bash
# Builds the benchmark and the asdfarm daemon from this checkout's
# sources, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload matrix-exact --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes goes
# under .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
go build -o "$build/bin/asdfarm" ./cmd/asdfarm >&2
exec "$build/bin/perfbench" "$@"
