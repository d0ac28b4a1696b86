#!/usr/bin/env bash
# Builds perfbench from the enclosing checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload c880-er --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced run's span export go to
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
