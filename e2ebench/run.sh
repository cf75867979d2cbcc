#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with
# the given arguments, from the root of the checkout. The Go build cache,
# the binary and everything a run writes stay under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files in
# the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
