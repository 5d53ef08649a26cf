#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload full-1k --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (binary,
# Go build cache, toolchain telemetry) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
if [ ! -f "$root/perfbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "perfbench: run from the repository root (perfbench/go.mod and go.mod needed)" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gopath" "$out/home"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off GOWORK=off
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out-dir "$out" "$@"
