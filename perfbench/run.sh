#!/usr/bin/env bash
# Builds the edgeIS wall-clock benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload track-mixed --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the Go tool's own state all live under
# .bench_build at the root of the checkout, so the benchmark reads and
# writes nothing outside it. perfbench is a module of its own that builds
# against the checkout's edgeis module (see perfbench/go.mod); without that
# module beside it the build fails and no result is printed.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
build="$root/.bench_build"
mkdir -p "$build/home"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$bench_dir" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
