#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, prepares its pinned
# k=6 inputs, and runs one workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload fleet-mix --seed 1 --seconds 55 --trace 0
#
# Everything it writes (Go build cache, binary, stores, scratch) goes
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local GOWORK=off GOENV=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
"$out/perfbench" --prepare --dir "$out" >&2
exec "$out/perfbench" --dir "$out" "$@"
