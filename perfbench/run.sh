#!/usr/bin/env bash
# Builds the benchmark and zivreport from this checkout's sources, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mp-lru --seed 1 --seconds 30 --trace 0
#
# Build products, the Go build cache and trace files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
go build -o "$out/zivreport" ./cmd/zivreport >&2

exec "$out/perfbench" -out "$out/perfbench-out" -zivreport "$out/zivreport" "$@"
