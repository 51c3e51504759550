#!/bin/sh
# Sustained-load serving benchmark: the real HTTP stack under concurrent
# batch-simplify traffic, reporting saturated-core trajectories/s and
# request latency percentiles. The short embedded run in BENCH_batch.json
# comes from the same harness; this script runs it long enough (10s by
# default, LOAD_DURATION to override) for steady-state numbers.
set -e
cd "$(dirname "$0")/.."

NUM_CPU=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
MAXPROCS="${GOMAXPROCS:-$NUM_CPU}"
DUR="${LOAD_DURATION:-10s}"
echo "== provenance: num_cpu=$NUM_CPU gomaxprocs=$MAXPROCS duration=$DUR =="
if [ "$MAXPROCS" = 1 ]; then
	echo '########################################################################' >&2
	echo "# WARNING: GOMAXPROCS=1 (num_cpu=$NUM_CPU)." >&2
	echo '# Sustained-load QPS below is SINGLE-CORE capacity. Do not publish' >&2
	echo '# it as a multi-core figure.' >&2
	echo '########################################################################' >&2
fi
go run ./cmd/rlts-bench -load -load-duration "$DUR"
