#!/bin/sh
# Regenerates BENCH_batch.json: the inference throughput baseline behind
# batch serving.
#
# The sweep times the exact and the bounded vector forward, sequential
# core.Simplify on certified decisions with its exact-fallback share, and
# a short sustained-load run. The file records throughput only; the
# machine block carries the provenance a reader needs to judge the
# numbers.
set -e
cd "$(dirname "$0")/.."

NUM_CPU=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
MAXPROCS="${GOMAXPROCS:-$NUM_CPU}"
echo "== provenance: num_cpu=$NUM_CPU gomaxprocs=$MAXPROCS =="
if [ "$MAXPROCS" = 1 ]; then
	echo '########################################################################' >&2
	echo "# WARNING: GOMAXPROCS=1 (num_cpu=$NUM_CPU)." >&2
	echo '# Every number this run produces is SINGLE-CORE. Do not publish them' >&2
	echo '# as multi-core results; the machine block records num_cpu and' >&2
	echo '# gomaxprocs as measured.' >&2
	echo '########################################################################' >&2
fi
go run ./cmd/rlts-bench -batch -batch-out BENCH_batch.json
echo "== forward micro benches (exact vs bounded forward, FastTanh) =="
go test ./internal/nn -run '^$' -bench 'ForwardSingle|FastTanh' -benchmem
