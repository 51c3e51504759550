GO ?= go

.PHONY: test check check-golden check-diff check-batch check-fast check-stream check-fleet check-bound check-dirty check-reach check-perfbench bench-rollout bench-obs bench-batch bench-fast bench-load bench-simplify

test:
	$(GO) test ./...

# Golden fixtures: persisted-format bytes (StreamerState v2, spill
# envelopes, RepairState, TRJ1, training checkpoint) round-trip
# byte-identically, every route's response bytes reproduce their pinned
# digests (TestGoldenResponses), and every decision path, Bottom-Up's kept sets
# (TestGoldenBottomUp), training over the six MDPs (TestGoldenTrain) and
# every measure's float64 bits reproduce their pinned digests.
check-golden:
	$(GO) test -count=1 -run 'TestGolden' ./internal/core ./internal/server ./internal/check ./internal/traj ./internal/storage ./internal/rl

# Differential + metamorphic correctness harness (internal/check): tracker
# vs recompute, streamer vs slice simplify, DP min-size vs brute force,
# rigid-motion invariance, adversarial-geometry totality. Deterministic
# seeds, race-enabled. CHECK_SCALE multiplies the iteration budget for
# deeper soak runs (default 1; the gate uses 4).
check-diff:
	CHECK_SCALE=$${CHECK_SCALE:-4} $(GO) test -race -count=1 ./internal/check

# Batch-engine differential: BatchEngine, which runs its items through
# Simplify's own decision loop, is bitwise identical to per-item Simplify
# at every batch size and in both inference modes over the adversarial
# generator set, plus the engine tests in internal/core and the batch
# route's sharding invariance in internal/server, race-enabled.
# CHECK_SCALE deepens the differential.
check-batch:
	CHECK_SCALE=$${CHECK_SCALE:-4} $(GO) test -race -count=1 -run 'TestBatchEngineDifferential' ./internal/check
	$(GO) test -race -count=1 -run 'TestBatchEngine' ./internal/core
	$(GO) test -race -count=1 -run 'TestSimplifyBatch' ./internal/server

# Certified-inference pillar: the fused bounded forward against the exact
# path on real decision states (abs/rel bounds on its probabilities,
# argmax and certified-decision equality on every adversarial family,
# end-to-end greedy kept-index equality, the refold after every write),
# the kernel tests in internal/nn (the proof of the certificate's tanh
# constant and the math.Tanh sample check, dense tanh sweep, special
# values, every logit within its bound, the once-per-network fold and
# its invalidation) and the certificate tests in internal/rl (Act equal
# to the exact decision on the fuzz seeds, the forced near-tie fallback,
# Act on a master across a training batch), race-enabled. CHECK_SCALE
# deepens the state coverage.
check-fast:
	CHECK_SCALE=$${CHECK_SCALE:-4} $(GO) test -race -count=1 -run 'TestFastMathTolerance|TestFastForwardIsolation' ./internal/check
	$(GO) test -race -count=1 -run 'TestFastTanh|TestTanhLibError|TestForwardBatchFastTolerance|TestForwardVectorZeroAlloc|TestKernelClone' ./internal/nn
	$(GO) test -race -count=1 -run 'FuzzActCertified|TestActNearTieFallsBack|TestActOnMasterAcrossTraining' ./internal/rl

# Durable session-store pillar: the spill/rehydrate bit-identity
# differential, the state codec totality tests, and the server-level
# durability suite (restart, quarantine, injected disk failure, Close vs
# live traffic), race-enabled. CHECK_SCALE deepens the differential.
check-stream:
	CHECK_SCALE=$${CHECK_SCALE:-4} $(GO) test -race -count=1 -run 'TestSpillRehydrateDifferential' ./internal/check
	$(GO) test -race -count=1 -run 'TestStreamer(Resume|State)|TestDecodeStreamerState|TestResumeStreamer|TestExportRestore|TestRestore' ./internal/core ./internal/buffer
	$(GO) test -race -count=1 -run 'TestStream|TestServerCloseRacesStreamTraffic' ./internal/server

# Fleet budget pillar: the allocator differential (exact-sum, per-member
# floor, determinism under member ordering), the rebalance invariant (a
# fleet of live streamers never holds more than the global budget, even
# transiently mid-rebalance), the pure allocator suite and the
# server-level fleet tests (lifecycle, attach validation, restart
# survival), race-enabled. CHECK_SCALE deepens the differentials.
check-fleet:
	CHECK_SCALE=$${CHECK_SCALE:-4} $(GO) test -race -count=1 -run 'TestFleetAllocateDifferential|TestFleetRebalanceBudgetInvariant' ./internal/check
	$(GO) test -race -count=1 ./internal/fleet
	$(GO) test -race -count=1 -run 'TestFleet|TestStreamList' ./internal/server

# Error-bounded pillar: the one-pass bound proof (every CISED/OPERB kept
# set re-scored by the exact oracle across all adversarial families) and
# the compression calibration against the Min-Size DP, plus the algorithm
# unit/degenerate tests and the server-level bound=eps routing tests,
# race-enabled. CHECK_SCALE deepens the differentials.
check-bound:
	CHECK_SCALE=$${CHECK_SCALE:-4} $(GO) test -race -count=1 -run 'TestBoundedOnePass' ./internal/check
	$(GO) test -race -count=1 -run 'TestBounded|TestSearchBudget' ./internal/baseline/online ./internal/minsize
	$(GO) test -race -count=1 -run 'TestBounded|TestBudgetConflict' ./internal/server

# Dirty-ingest pillar: the repair contract (output always satisfies the
# strict FromPoints contract, clean input passes through bit-identically,
# chunking and export/resume cuts are invisible), the repairer unit and
# state-codec suites, the hostile generator families, and the server-level
# repair wiring (one-shot, batch, stream, spill-envelope v2 restart
# bit-identity, classified reject codes), race-enabled. CHECK_SCALE
# deepens the differentials.
check-dirty:
	CHECK_SCALE=$${CHECK_SCALE:-4} $(GO) test -race -count=1 -run 'TestRepair' ./internal/check
	$(GO) test -race -count=1 -run 'TestRepair|TestResumeRepairer|TestValidateDuplicateTime' ./internal/traj
	$(GO) test -race -count=1 -run 'TestDirty|TestFamilies|TestEveryFamilyRepairs|TestCorrupt|TestCompose|TestOutlierInStop|TestDupOfOutlier' ./internal/gen
	$(GO) test -race -count=1 -run 'TestSimplifyRepair|TestBatchRepair|TestStreamRepair|TestStreamRejectCodes|TestSpillEnvelopeV1|TestPointsErrorCode' ./internal/server

# Reachability gate: every non-test function is linked by an entry binary
# or named on scripts/reach.allow, and no allowlist line is stale.
check-reach:
	sh scripts/reach.sh

# perfbench smoke: a 2 s run of each benchmark workload must finish within
# five minutes with every answer correct and no failed operation.
check-perfbench:
	sh scripts/perfbench_smoke.sh

# Full gate: vet + build + reachability + race-detector test run
# (exercises the parallel trainer and evaluation paths) + pillars +
# perfbench smoke + a fuzz smoke pass over every fuzz target (override the
# per-target budget with FUZZTIME=30s).
check:
	sh scripts/check.sh

# Regenerate the rollout-engine benchmark baseline (BENCH_rollout.json).
bench-rollout:
	sh scripts/bench_rollout.sh

# Benchmark the metrics primitives (counter/gauge/histogram hot paths and
# the text encoder).
bench-obs:
	$(GO) test ./internal/obs -run '^$$' -bench . -benchmem

# Regenerate the inference throughput baseline behind batch serving
# (BENCH_batch.json): exact vs bounded forward, certified Simplify with
# its fallback share, per-core scaling of sharded Simplify workers and a
# short sustained-load run.
bench-batch:
	sh scripts/bench_batch.sh

# Fused-forward micro benches: FastTanh vs math.Tanh and the bounded
# vector forward against the exact one.
bench-fast:
	$(GO) test ./internal/nn -run '^$$' -bench 'FastTanh|MathTanh|ForwardSingle' -benchmem

# The served simplify in process, shaped like perfbench single_long: the
# embedded RLTS+/SED policy, greedy, at W = n/10 over 16 seeded Truck
# trajectories of 5,000-20,000 points, in ns and allocations per point.
bench-simplify:
	$(GO) test . -run '^$$' -bench BenchmarkServedRLTSPlus -benchtime 3s

# Sustained-load serving benchmark, 10s; LOAD_DURATION overrides.
bench-load:
	sh scripts/bench_load.sh
