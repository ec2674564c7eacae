#!/usr/bin/env bash
# Builds the benchmark and the cmd/coalesced service from the checkout's
# sources, then runs the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload kernels --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Build outputs, the Go build cache
# and the traced run's spans go to $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache
export GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$out/coalesced" ./cmd/coalesced
(cd perfbench && go build -o "$out/perfbench" .)

workload=unknown
prev=
for a in "$@"; do
	if [ "$prev" = --workload ] || [ "$prev" = -workload ]; then
		workload=$a
	fi
	prev=$a
done

exec "$out/perfbench" -root "$root" -coalesced "$out/coalesced" -traceout "$out/trace-$workload.jsonl" "$@"
