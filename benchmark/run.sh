#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the build
# and the run write stays under .bench_build/ (named in the root .gitignore):
# the binary, Go's build cache and configuration, and the ledger's scratch
# files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" XDG_CONFIG_HOME="$root/.bench_build/config" \
GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	go build -C benchmark -buildvcs=false -ldflags "-X main.commit=$commit" -o "$root/.bench_build/benchmark" .
exec "$root/.bench_build/benchmark" "$@"
