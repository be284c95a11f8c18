#!/usr/bin/env bash
# Builds hmemd and the benchmark, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload suite|cold|warm --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything it builds or caches stays under
# the build directory ($CARGO_TARGET_DIR, default .bench_build), and the
# builds happen before the benchmark starts timing anything.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bin/hmemd" ./cmd/hmemd
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -hmemd "$out/bin/hmemd" "$@"
