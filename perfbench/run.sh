#!/usr/bin/env bash
# Builds the served-path benchmark from source and runs it. Run from the
# repository root; arguments pass through to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload exec_light --seed 1 --seconds 24 --trace 0
#
# Build products, the Go build cache and the run ledgers stay under
# .bench_build/ (or $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail
root=$(pwd)
target=${CARGO_TARGET_DIR:-.bench_build}
case $target in /*) ;; *) target="$root/$target" ;; esac
build="$target/perfbench"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build" "$@"
