#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes (binary, Go build cache, Go's own config
# files) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/pbbench" .)
cd "$root"
exec "$build/pbbench" "$@"
