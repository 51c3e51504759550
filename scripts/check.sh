#!/bin/sh
# Full verification gate: vet, build, the reachability gate, the test
# suite under the race detector (which exercises the parallel trainer and
# the parallel evaluation harness), a benchmark smoke pass over the
# metrics hot paths, a live /metrics scrape against a real server
# process, a short run of each perfbench workload, and a short fuzz smoke
# pass over every fuzz target. This is what `make check` runs.
set -e
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

# Formatting: every tracked Go file must be gofmt-clean. .bench_build
# holds perfbench's build caches and module downloads, not our sources.
echo "== gofmt =="
unformatted=$(git ls-files '*.go' | grep -v '^\.bench_build/' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:"
    echo "$unformatted"
    exit 1
fi
echo "== go build =="
go build ./...

# perfbench is a nested module (replace rlts => ../) that the root
# `go build ./...` skips, so an API change that breaks the benchmark
# would otherwise pass this gate. It builds offline.
echo "== perfbench builds =="
(cd perfbench && go vet .)

# Reachability: every non-test function must be linked by an entry binary
# (each package main, perfbench, or package rlts's exported API) or be
# named on scripts/reach.allow with its reason, and no allowlist line may
# name a linked or missing function. See DESIGN.md §9.5.
echo "== reachability =="
sh scripts/reach.sh
echo "== go test -race =="
go test -race ./...

# Golden fixtures: the committed StreamerState, spill-envelope,
# RepairState, TRJ1 and training-checkpoint bytes must decode and
# re-encode byte-identically (and the recipes that wrote them must still
# reproduce them), and every decision path — Simplify, BatchEngine,
# Streamer, resumed Streamer; pretrained, seeded Skip and seeded ++
# policies; greedy and sampled — must reproduce its pinned digest, as
# must the fused forward's probabilities (the fastprobs rows), every
# route's response bytes (TestGoldenResponses), Bottom-Up's kept sets
# (TestGoldenBottomUp), training over the six MDPs (TestGoldenTrain) and
# the float64 bits of every measure (TestGoldenMeasureBits). A change that alters a persisted
# format, forks one decision or moves one measure's last bit fails here
# by name. Fixtures are never regenerated to make this stage pass. Each
# pillar below runs its Makefile target, where its tests are listed once.
echo "== golden fixtures =="
make check-golden

# The differential/metamorphic harness runs in the suite above at scale 1;
# the gate gives it a deeper, dedicated pass so oracle drift can't hide
# behind a fast default. Deterministic seeds: a failure here reproduces.
echo "== differential harness (internal/check, CHECK_SCALE=${CHECK_SCALE:-4}) =="
make check-diff

# Batch-engine differential: BatchEngine, which runs its items through
# Simplify's own decision loop, must be bitwise identical to per-item
# Simplify at every batch size, both inference modes, over the
# adversarial generator set — plus the engine tests in internal/core and
# the batch route's sharding invariance in internal/server. Scaled by
# the same CHECK_SCALE knob.
echo "== batch-engine differential (CHECK_SCALE=${CHECK_SCALE:-4}) =="
make check-batch

# Certified-inference pillar: the fused bounded forward against the
# exact path on real decision states — abs/rel bounds on its
# probabilities, argmax equality and certified decisions equal to the
# exact ones on every adversarial family, end-to-end greedy kept-index
# equality — plus the kernel-level tests in internal/nn (the proof of the
# certificate's tanh constant, the dense tanh sweep and special values,
# every logit within its bound, the once-per-network fold and its
# invalidation) and the certificate tests in internal/rl (Act equal to
# the exact decision on the fuzz seeds, the forced near-tie fallback,
# Act on a master across a training batch). Same CHECK_SCALE knob
# deepens the state coverage.
echo "== certified-inference pillar (CHECK_SCALE=${CHECK_SCALE:-4}) =="
make check-fast

# Durable session store: the spill/rehydrate differential (a streamer
# serialized through the binary codec at adversarial cut points must
# continue bit-identically) plus the server-level durability tests —
# restart bit-identity, corrupt-file quarantine, injected disk failure,
# Close racing live traffic — all under the race detector.
echo "== stream spill/rehydrate pillar (CHECK_SCALE=${CHECK_SCALE:-4}) =="
make check-stream

# Fleet budget pillar: the allocator must distribute exactly the global
# budget deterministically regardless of member ordering, and a rebalance
# against live streamers must never let the fleet's stored-point total
# exceed that budget, even transiently between two resizes. The server
# suite adds the HTTP lifecycle and the spill/restart survival of fleet
# records (allocations rehydrate bit-identically; see TestFleetSurvivesRestart).
echo "== fleet budget pillar (CHECK_SCALE=${CHECK_SCALE:-4}) =="
make check-fleet

# Error-bounded pillar: CISED/OPERB kept sets re-scored by the exact
# oracle on every adversarial family (including the overflow-probing
# extreme/huge ones) must never exceed the requested bound, and their
# compression must stay within a small factor of the Min-Size DP. The
# package suites add the degenerate-input contract and the bound=eps
# HTTP routing. Same CHECK_SCALE knob deepens the sweep.
echo "== error-bounded pillar (CHECK_SCALE=${CHECK_SCALE:-4}) =="
make check-bound

# Dirty-ingest pillar: repair output must always satisfy the strict
# FromPoints contract (every corruption family x every profile x every
# config), clean input must pass through bit-identically, and chunking /
# export-resume cuts must be invisible — plus the repairer unit suite,
# the hostile generator families, and the server-level wiring (one-shot,
# batch, stream, spill-envelope v2 restart bit-identity, classified
# reject codes). Same CHECK_SCALE knob deepens the sweeps.
echo "== dirty-ingest repair pillar (CHECK_SCALE=${CHECK_SCALE:-4}) =="
make check-dirty

# Crash-restart smoke with the real binary: boot with a spill dir, open a
# session and push half a stream, SIGTERM (the drain path spills it),
# restart against the same directory, push the rest and make sure the
# rehydrated session answers with everything it saw.
echo "== crash-restart smoke =="
SPILL_PORT="${SPILL_PORT:-18322}"
SPILL_DIR="$(mktemp -d /tmp/rlts-spill-check.XXXXXX)"
go build -o /tmp/rlts-server-check ./cmd/rlts-server
/tmp/rlts-server-check -addr "127.0.0.1:$SPILL_PORT" -spill-dir "$SPILL_DIR" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$SPILL_DIR"' EXIT
ok=""
for i in 1 2 3 4 5 6 7 8 9 10; do
    if curl -fsS "http://127.0.0.1:$SPILL_PORT/healthz" >/dev/null 2>&1; then
        ok=1
        break
    fi
    sleep 0.5
done
[ -n "$ok" ] || { echo "crash-restart: server never answered on :$SPILL_PORT"; exit 1; }
SID=$(curl -fsS -X POST "http://127.0.0.1:$SPILL_PORT/v1/stream" \
    -d '{"measure":"SED","w":5}' | sed 's/.*"id":"\([0-9a-f]*\)".*/\1/')
[ -n "$SID" ] || { echo "crash-restart: no session id"; exit 1; }
curl -fsS -X POST "http://127.0.0.1:$SPILL_PORT/v1/stream/$SID/points" \
    -d '{"points":[[0,0,0],[1,0,1],[2,5,2],[3,0,3]]}' >/dev/null
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
ls "$SPILL_DIR"/*.sess >/dev/null 2>&1 || { echo "crash-restart: no spill file after SIGTERM"; exit 1; }
/tmp/rlts-server-check -addr "127.0.0.1:$SPILL_PORT" -spill-dir "$SPILL_DIR" &
SERVER_PID=$!
ok=""
for i in 1 2 3 4 5 6 7 8 9 10; do
    if curl -fsS "http://127.0.0.1:$SPILL_PORT/healthz" >/dev/null 2>&1; then
        ok=1
        break
    fi
    sleep 0.5
done
[ -n "$ok" ] || { echo "crash-restart: restarted server never answered"; exit 1; }
curl -fsS -X POST "http://127.0.0.1:$SPILL_PORT/v1/stream/$SID/points" \
    -d '{"points":[[4,0,4],[5,2,5]]}' >/dev/null || {
    echo "crash-restart: push to rehydrated session failed"; exit 1; }
SNAP=$(curl -fsS "http://127.0.0.1:$SPILL_PORT/v1/stream/$SID")
echo "$SNAP" | grep -q '"seen":6' || {
    echo "crash-restart: rehydrated session lost points: $SNAP"; exit 1; }
kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
rm -rf "$SPILL_DIR"
trap - EXIT
echo "crash-restart: OK"

# One iteration per obs benchmark: catches compile errors and gross
# regressions (a panicking Observe, an encoder that hangs) without
# turning the gate into a benchmark run.
echo "== obs bench smoke (1 iteration each) =="
go test ./internal/obs -run '^$' -bench . -benchtime 1x

# One iteration of the served-simplify benchmark (make bench-simplify):
# the embedded RLTS+/SED policy over single_long-shaped Truck inputs.
echo "== simplify bench smoke (1 iteration) =="
go test . -run '^$' -bench BenchmarkServedRLTSPlus -benchtime 1x

# Live scrape check: boot the real server, curl /metrics, and make sure
# the exposition output mentions our metric namespace. Guards the whole
# wiring chain (registry -> handler -> route), not just the encoder.
echo "== /metrics scrape check =="
SCRAPE_PORT="${SCRAPE_PORT:-18321}"
go build -o /tmp/rlts-server-check ./cmd/rlts-server
/tmp/rlts-server-check -addr "127.0.0.1:$SCRAPE_PORT" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT
# Wait for readiness on /healthz; that request also seeds the request
# counter so the scrape below has a series to find (the middleware records
# a request after its response is written, so a first scrape never shows
# itself).
ok=""
for i in 1 2 3 4 5 6 7 8 9 10; do
    if curl -fsS "http://127.0.0.1:$SCRAPE_PORT/healthz" >/dev/null 2>&1; then
        ok=1
        break
    fi
    sleep 0.5
done
[ -n "$ok" ] || { echo "scrape check: server never answered on :$SCRAPE_PORT"; exit 1; }
curl -fsS "http://127.0.0.1:$SCRAPE_PORT/metrics" >/tmp/rlts-scrape.txt
grep -q '^rlts_http_requests_total' /tmp/rlts-scrape.txt || {
    echo "scrape check: no rlts_http_requests_total in /metrics output"
    cat /tmp/rlts-scrape.txt
    exit 1
}
kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
trap - EXIT
echo "scrape check: OK"

# perfbench smoke: a 2 s run of each benchmark workload, built from this
# checkout, must finish within five minutes with every answer correct and
# no failed operation.
echo "== perfbench smoke =="
sh scripts/perfbench_smoke.sh

# FUZZTIME can be raised for a deeper run; 10s per target keeps the gate
# fast while still shaking out regressions in the parsers and handlers.
FUZZTIME="${FUZZTIME:-10s}"
echo "== fuzz smoke ($FUZZTIME per target) =="
go test ./internal/traj -run '^$' -fuzz '^FuzzReadCSV$' -fuzztime "$FUZZTIME"
go test ./internal/traj -run '^$' -fuzz '^FuzzFromPoints$' -fuzztime "$FUZZTIME"
go test ./internal/traj -run '^$' -fuzz '^FuzzRepair$' -fuzztime "$FUZZTIME"
go test ./internal/traj -run '^$' -fuzz '^FuzzDecodeRepairState$' -fuzztime "$FUZZTIME"
go test ./internal/core -run '^$' -fuzz '^FuzzDecodeStreamerState$' -fuzztime "$FUZZTIME"
go test ./internal/rl -run '^$' -fuzz '^FuzzActCertified$' -fuzztime "$FUZZTIME"
go test ./internal/errm -run '^$' -fuzz '^FuzzSegmentError$' -fuzztime "$FUZZTIME"
go test ./internal/storage -run '^$' -fuzz '^FuzzDecode$' -fuzztime "$FUZZTIME"
go test ./internal/server -run '^$' -fuzz '^FuzzSimplifyHandler$' -fuzztime "$FUZZTIME"
go test ./internal/server -run '^$' -fuzz '^FuzzStatsHandler$' -fuzztime "$FUZZTIME"
go test ./internal/server -run '^$' -fuzz '^FuzzDecodeBody$' -fuzztime "$FUZZTIME"
go test ./internal/server -run '^$' -fuzz '^FuzzDecodeNumber$' -fuzztime "$FUZZTIME"
go test ./internal/server -run '^$' -fuzz '^FuzzSessionDecode$' -fuzztime "$FUZZTIME"
echo "check: OK"
