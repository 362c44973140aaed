#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash chimerabench/run.sh --workload <rewrite_cold|serve_mixed|fuzz_campaign|all> \
#        --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build artifact (binary, Go build cache,
# temporary files) and every file the benchmark writes stays under
# .bench_build/ in the current directory. Without the repository's sources
# next to this directory the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$here" && go build -o "$out/bin/chimerabench" .) >&2
exec "$out/bin/chimerabench" "$@"
