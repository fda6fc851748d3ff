#!/usr/bin/env bash
# Builds the benchmark from source into the checkout and runs it with
# the given arguments, from the repository root:
#
#   bash bench/run.sh --workload steady_delta --seed 1 --seconds 55 --trace 0
#
# Everything the build writes stays inside the checkout: the binary,
# Go's build cache, its scratch directory and the toolchain's own
# config/counter files all live under $CARGO_TARGET_DIR (the driver's
# name for the build directory) or .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$PWD/$build" ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$build/ckpt-bench" .)
exec "$build/ckpt-bench" "$@"
