#!/usr/bin/env bash
# Builds the commit's rlts-server and the benchmark from source inside the
# checkout, then makes one benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload single_long --seed 1 --seconds 10 --trace 0
#
# Build caches, binaries and run scratch all live under .bench_build.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/rlts-server" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/rlts-server here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go build -o "$out/bin/rlts-server" ./cmd/rlts-server
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --root "$root" --server "$out/bin/rlts-server" --out "$out" "$@"
