#!/bin/sh
# perfbench smoke: one 2 s run of each benchmark workload, each capped at
# five minutes, built from this checkout as the full benchmark builds it.
# It fails unless the run's last line reports every answer correct and no
# failed operation, so a change that stalls or breaks the benchmark fails
# here rather than in a full run.
set -e
cd "$(dirname "$0")/.."
for w in single_long dirty_bounded; do
    out=$(timeout 300 bash perfbench/run.sh --workload "$w" --seed 1 --seconds 2 --trace 0) || {
        echo "perfbench smoke: $w exited with status $?"
        exit 1
    }
    last=$(printf '%s\n' "$out" | tail -n 1)
    case "$last" in
    *'"correct":true'*'"failed":0,'*) echo "perfbench smoke: $w OK" ;;
    *)
        echo "perfbench smoke: $w: $last"
        exit 1
        ;;
    esac
done
