#!/usr/bin/env bash
# Builds cmd/serve and the benchmark from source and runs one workload:
#
#   bash servebench/run.sh --workload single-small --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every build output, cache and span file
# stays under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/spans" "$build/home"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/config" XDG_CACHE_HOME="$build/home/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/bin/servebench" . && go build -o "$build/bin/serve" resilex/cmd/serve)
exec "$build/bin/servebench" -serve-bin "$build/bin/serve" -out-dir "$build/spans" "$@"
