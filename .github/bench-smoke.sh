#!/usr/bin/env bash
# Runs the named benchmarks of one package at a fixed -benchtime and
# fails unless every name reported a result line, so a benchmark that is
# renamed or deleted cannot leave a smoke step passing while it runs
# nothing (go test exits 0 when -bench matches no benchmark).
#
#   bash .github/bench-smoke.sh <package> <benchtime> <BenchmarkName>...
#
# The -bench pattern is the names joined by '|'.
set -euo pipefail
pkg=$1 benchtime=$2
shift 2
pattern=$(IFS='|'; echo "$*")
log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test -run '^$' -bench "$pattern" -benchtime "$benchtime" "$pkg" | tee "$log"
for name in "$@"; do
  if ! grep -Eq "^${name}([-/[:space:]]|\$)" "$log"; then
    echo "bench-smoke: $name reported no result in $pkg (pattern '$pattern')" >&2
    exit 1
  fi
done
