package rl

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rlts/internal/nn"
)

// TrainConfig holds the hyper-parameters of REINFORCE training, defaulted
// to the paper's settings (§VI-A).
type TrainConfig struct {
	LearningRate float64 // Adam learning rate; paper: 1e-3
	Gamma        float64 // reward discount; paper: 0.99
	Episodes     int     // episodes generated per trajectory (one update per batch); paper: 10
	Epochs       int     // passes over the trajectory list; default 1
	Hidden       int     // hidden layer width; paper: 20
	Seed         int64   // RNG seed for init, sampling and shuffling
	// Workers sets how many goroutines roll out episodes and accumulate
	// gradients within each per-trajectory batch: 0 means GOMAXPROCS,
	// 1 runs everything on the calling goroutine. The math is identical
	// for every worker count — per-episode RNGs are derived from Seed,
	// rollouts run against a frozen policy snapshot, and per-episode
	// gradients merge in episode order — so the trained policy is
	// bit-for-bit reproducible regardless of Workers.
	Workers int
	// Entropy adds an entropy bonus beta*H(pi(.|s)) to the objective,
	// discouraging premature collapse onto one action. The paper does not
	// use one (0 disables); it is provided for ablation.
	Entropy  float64
	Log      io.Writer // optional progress sink (nil = silent)
	LogEvery int       // log every n trajectories (0 = never)
	// Logger, when non-nil, receives a structured progress record every
	// LogEvery trajectories (alongside whatever Log gets): epoch, position,
	// rewards, last merged gradient norm and guard-trip counts. Metrics
	// themselves always flow into the obs default registry regardless.
	Logger *slog.Logger
	// Checkpoint, when non-empty, is a file path that periodically receives
	// an atomically-written training checkpoint (policy, best snapshot,
	// optimizer moments, RNG position, batch counter, health report).
	// A run resumed from it with ResumePolicy and the same dataset and
	// hyper-parameters produces the bit-identical final policy of an
	// uninterrupted run.
	Checkpoint string
	// CheckpointEvery sets how many batches elapse between checkpoint
	// writes (<=0 means every batch). The final batch is always
	// checkpointed regardless.
	CheckpointEvery int
	// OnBatch, when non-nil, runs after every completed batch (and after
	// any due checkpoint write) with the global 1-based batch number.
	// Returning a non-nil error aborts training with that error; the fault
	// injection tests use it to simulate crashes at batch boundaries.
	OnBatch func(batch int) error
}

// DefaultTrainConfig returns the paper's hyper-parameters.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		LearningRate: 1e-3,
		Gamma:        0.99,
		Episodes:     10,
		Hidden:       20,
		Seed:         1,
	}
}

func (c *TrainConfig) fillDefaults() {
	d := DefaultTrainConfig()
	if c.LearningRate <= 0 {
		c.LearningRate = d.LearningRate
	}
	if c.Gamma <= 0 {
		c.Gamma = d.Gamma
	}
	if c.Episodes <= 0 {
		c.Episodes = d.Episodes
	}
	if c.Epochs <= 0 {
		c.Epochs = 1
	}
	if c.Hidden <= 0 {
		c.Hidden = d.Hidden
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
}

// TrainResult reports what training produced. Best is the snapshot with
// the highest single-episode total reward (the paper's criterion); Final
// is the policy after the last update. Episode rewards are only comparable
// within one trajectory, so when training spans many trajectories of
// different difficulty Final is usually the better choice and is what the
// higher-level trainers use.
type TrainResult struct {
	Best        *Policy
	Final       *Policy
	BestReward  float64 // best single-episode total reward
	FinalReward float64 // total reward of the last episode
	EpisodesRun int
	StepsRun    int
	// Health reports what the divergence guards saw: batches skipped for
	// non-finite rollouts, updates dropped for non-finite gradients, and
	// parameter rollbacks. A healthy run has Health.Ok() == true.
	Health TrainHealth
}

// rolloutInto plays one episode of env under policy, sampling actions, and
// records the trace into ep, reusing its storage. train selects
// training-mode forwards (batch-norm statistics update); the batch trainer
// always rolls out with train=false against a frozen snapshot and folds
// the statistics in once per batch. If env implements Progresser,
// per-step progress keys are recorded for the trainer's return alignment.
//
// States and masks are copied into episode-owned storage, so environments
// may reuse their state buffers between steps.
func rolloutInto(ep *Episode, env Env, p *Policy, r *rand.Rand, train bool) {
	ep.reset()
	prog, hasProg := env.(Progresser)
	state, mask, done := env.Reset()
	for !done {
		if hasProg {
			ep.Keys = append(ep.Keys, prog.ProgressKey())
		}
		probs := p.probsInto(state, mask, train)
		a := SampleAction(probs, r)
		// Copy state/mask before Step: building the next state may overwrite
		// the environment's scratch buffers that state/mask alias.
		ep.pushStep(state, mask, a)
		var reward float64
		state, mask, reward, done = env.Step(a)
		ep.Rewards = append(ep.Rewards, reward)
	}
}

// TrainPolicy runs REINFORCE from the initial policy p over a stream of
// environments. envs yields one Env per training trajectory (the caller
// typically wraps a dataset); for each it generates cfg.Episodes episodes
// and applies one optimizer update per batch. It returns the best policy
// observed.
//
// Within each per-trajectory batch the cfg.Episodes rollouts are
// independent given a frozen policy snapshot, so they are fanned out over
// cfg.Workers goroutines; see TrainConfig.Workers for the determinism
// guarantee.
func TrainPolicy(p *Policy, envs []Env, cfg TrainConfig) (*TrainResult, error) {
	cfg.fillDefaults()
	if err := validateEnvs(p, envs); err != nil {
		return nil, err
	}
	return trainLoop(p, envs, cfg, nil)
}

// ResumePolicy continues a training run from a checkpoint written by a
// previous TrainPolicy/ResumePolicy invocation with cfg.Checkpoint set.
// envs and the determinism-relevant hyper-parameters (seed, episodes,
// learning rate, gamma, entropy) must match the original run; cfg.Epochs
// may be raised to train longer. The resumed run replays the exact
// remaining batch sequence, so its final policy is bit-identical to the
// uninterrupted run's.
func ResumePolicy(ck *Checkpoint, envs []Env, cfg TrainConfig) (*TrainResult, error) {
	cfg.fillDefaults()
	if err := ck.compatible(cfg, len(envs)); err != nil {
		return nil, err
	}
	if err := validateEnvs(ck.Policy, envs); err != nil {
		return nil, err
	}
	return trainLoop(ck.Policy, envs, cfg, ck)
}

func validateEnvs(p *Policy, envs []Env) error {
	if len(envs) == 0 {
		return fmt.Errorf("rl: no training environments")
	}
	for _, env := range envs {
		if env.StateSize() != p.Spec.In || env.NumActions() != p.Spec.Out {
			return fmt.Errorf("rl: env shape (%d states, %d actions) does not match policy (%d, %d)",
				env.StateSize(), env.NumActions(), p.Spec.In, p.Spec.Out)
		}
	}
	return nil
}

// trainLoop is the shared epoch/batch loop of TrainPolicy and
// ResumePolicy: ck == nil starts fresh, otherwise the engine and result
// are restored and the loop continues from the checkpointed position.
func trainLoop(p *Policy, envs []Env, cfg TrainConfig, ck *Checkpoint) (*TrainResult, error) {
	eng := newEngine(p, cfg)
	res := &TrainResult{BestReward: math.Inf(-1)}
	startEpoch, startEnv := 0, 0
	if ck != nil {
		if err := eng.restore(ck, res); err != nil {
			return nil, err
		}
		startEpoch, startEnv = ck.Epoch, ck.Next
	}
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		first := 0
		if epoch == startEpoch {
			first = startEnv
		}
		for ti := first; ti < len(envs); ti++ {
			eng.runBatch(envs[ti], res)
			// The position the *next* batch runs at; a checkpoint taken now
			// resumes there.
			nextEpoch, nextEnv := epoch, ti+1
			if nextEnv == len(envs) {
				nextEpoch, nextEnv = epoch+1, 0
			}
			lastBatch := nextEpoch >= cfg.Epochs
			if cfg.Checkpoint != "" && (eng.batch%cfg.CheckpointEvery == 0 || lastBatch) {
				if err := eng.writeCheckpoint(cfg.Checkpoint, nextEpoch, nextEnv, res); err != nil {
					return nil, fmt.Errorf("rl: checkpoint: %w", err)
				}
			}
			if cfg.OnBatch != nil {
				if err := cfg.OnBatch(eng.batch); err != nil {
					return nil, err
				}
			}
			if cfg.LogEvery > 0 && (ti+1)%cfg.LogEvery == 0 {
				if cfg.Log != nil {
					fmt.Fprintf(cfg.Log, "rl: epoch %d, trajectory %d/%d, best reward %.4f, last %.4f\n",
						epoch+1, ti+1, len(envs), res.BestReward, res.FinalReward)
				}
				if cfg.Logger != nil {
					cfg.Logger.Info("training progress",
						"epoch", epoch+1, "trajectory", ti+1, "of", len(envs),
						"batch", eng.batch,
						"best_reward", res.BestReward, "last_reward", res.FinalReward,
						"grad_norm", trainMetrics().gradNorm.Value(),
						"guard_trips", res.Health.RolloutSkips+res.Health.GradSkips+res.Health.Rollbacks)
				}
			}
		}
	}
	res.Final = p
	if res.Best == nil {
		// No episode ever ran (all environments degenerate): the policy is
		// unchanged, so the final weights are also the best seen.
		res.Best = p.Clone()
	}
	return res, nil
}

// engine is the per-TrainPolicy-run rollout and update machinery: worker
// replicas of the policy, reusable episode and gradient storage, and the
// running episode counter that seeds per-episode RNGs.
type engine struct {
	master *Policy
	adam   *nn.Adam
	cfg    TrainConfig

	workers []*trainWorker
	eps     []*Episode  // cfg.Episodes slots, storage reused across batches
	epFail  []string    // per-episode rollout panic message ("" = ok)
	grads   [][]float64 // per-episode flattened gradients, merged in order
	steps   []int       // per-episode gradient step counts
	coeffs  [][]float64 // per-episode REINFORCE coefficients
	returns [][]float64 // per-episode discounted returns
	epSeq   uint64      // episodes started so far; seeds per-episode RNGs
	batch   int         // global 1-based batch counter (survives resume)

	// workerNanos[i] accumulates worker i's rollout busy time within the
	// current batch (each worker writes only its own slot, so the parallel
	// phase stays race-free); drained into the obs histogram per batch.
	workerNanos []int64

	// Divergence-guard scratch: the parameter and optimizer state saved
	// immediately before each Adam step, restored if the step produced
	// non-finite weights (buffers reused every batch).
	preParams []float64
	preAdam   nn.AdamState
}

// trainWorker owns everything one rollout/gradient goroutine touches: a
// full policy replica (network weights, batch-norm statistics and forward
// workspace), a reseedable RNG and, during the rollout phase, a cloned
// environment.
type trainWorker struct {
	id     int // index into engine.workerNanos
	policy *Policy
	rng    *rand.Rand
	env    Env
}

func newEngine(p *Policy, cfg TrainConfig) *engine {
	eng := &engine{
		master:  p,
		adam:    nn.NewAdam(p.Net.Params(), cfg.LearningRate),
		cfg:     cfg,
		eps:     make([]*Episode, cfg.Episodes),
		epFail:  make([]string, cfg.Episodes),
		grads:   make([][]float64, cfg.Episodes),
		steps:   make([]int, cfg.Episodes),
		coeffs:  make([][]float64, cfg.Episodes),
		returns: make([][]float64, cfg.Episodes),
	}
	for i := range eng.eps {
		eng.eps[i] = &Episode{}
	}
	nw := cfg.Workers
	if nw > cfg.Episodes {
		nw = cfg.Episodes
	}
	if nw < 1 {
		nw = 1
	}
	eng.workers = make([]*trainWorker, nw)
	eng.workerNanos = make([]int64, nw)
	for i := range eng.workers {
		eng.workers[i] = &trainWorker{
			id:     i,
			policy: p.Clone(),
			rng:    rand.New(rand.NewSource(0)),
		}
	}
	return eng
}

// deriveSeed maps (master seed, episode index) to an independent RNG seed
// with a splitmix64-style mix, so episode e always samples the same action
// stream no matter which worker runs it.
func deriveSeed(master int64, episode uint64) int64 {
	z := uint64(master) + 0x9e3779b97f4a7c15*(episode+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// syncWorkers refreshes every replica from the master policy (weights and
// batch-norm statistics), in place.
func (g *engine) syncWorkers() {
	for _, w := range g.workers {
		w.policy.Net.SyncFrom(g.master.Net)
	}
}

// parallel runs fn(worker, e) for e in [0, n) over up to nw workers.
// Episodes are claimed with an atomic counter, so worker assignment is
// scheduling-dependent — which is fine, because fn's output for episode e
// must not depend on the worker (replicas are bit-identical).
func (g *engine) parallel(nw, n int, fn func(w *trainWorker, e int)) {
	if nw > n {
		nw = n
	}
	if nw <= 1 {
		for e := 0; e < n; e++ {
			fn(g.workers[0], e)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func(w *trainWorker) {
			defer wg.Done()
			for {
				e := int(next.Add(1))
				if e >= n {
					return
				}
				fn(w, e)
			}
		}(g.workers[i])
	}
	wg.Wait()
}

// runBatch generates one batch of episodes on env and applies one
// REINFORCE update. The phases are:
//
//  1. sync replicas to the master (the frozen snapshot for this batch);
//  2. parallel rollouts with per-episode RNGs, train=false forwards;
//  3. divergence guard: if any rollout produced a non-finite state or
//     reward, the whole batch is discarded before it can touch the
//     statistics, the result, or the weights;
//  4. serial bookkeeping: reward stats, lazy best-policy clone (at most
//     one per batch), batch-norm running statistics updated once from the
//     collected states in episode order;
//  5. re-sync replicas (they need the updated statistics);
//  6. parallel per-episode gradient accumulation on the replicas;
//  7. serial merge of the per-episode gradients in episode order and a
//     single Adam step, guarded: a non-finite merged gradient drops the
//     update, and a step that yields non-finite weights is rolled back to
//     the pre-step parameters and optimizer moments.
//
// Every floating-point operation happens either serially on the master or
// per-episode on a replica that is bit-identical to the master, so the
// result does not depend on the worker count. The guards are themselves
// deterministic, so checkpoint/resume reproducibility holds even for runs
// that trip them.
func (g *engine) runBatch(env Env, res *TrainResult) {
	g.batch++
	numEp := g.cfg.Episodes
	g.syncWorkers()

	// Environment clones for the rollout phase (refreshed every batch — the
	// environment changes per trajectory). Without EnvCloner only one worker
	// rolls out (serially); the gradient phase still parallelizes.
	rolloutWorkers := len(g.workers)
	g.workers[0].env = env
	if cloner, ok := env.(EnvCloner); ok {
		for i := 1; i < rolloutWorkers; i++ {
			g.workers[i].env = cloner.CloneEnv()
		}
	} else {
		rolloutWorkers = 1
	}

	seqBase := g.epSeq
	g.epSeq += uint64(numEp)
	for i := range g.workerNanos {
		g.workerNanos[i] = 0
	}
	g.parallel(rolloutWorkers, numEp, func(w *trainWorker, e int) {
		start := time.Now()
		w.rng.Seed(deriveSeed(g.cfg.Seed, seqBase+uint64(e)))
		g.epFail[e] = safeRollout(g.eps[e], w.env, w.policy, w.rng)
		g.workerNanos[w.id] += time.Since(start).Nanoseconds()
	})
	met := trainMetrics()
	for _, ns := range g.workerNanos {
		if ns > 0 {
			met.rolloutWorkerSeconds.Observe(float64(ns) / 1e9)
		}
	}
	met.batches.Inc()

	// Guard: a non-finite state or reward (NaN coordinates slipping through
	// a caller, a diverged policy pushing the environment into overflow)
	// would poison the batch-norm statistics, the return normalization and
	// the gradients — and a rollout that panicked outright (e.g. NaN logits
	// leaving no legal action) produced no usable episode at all. Drop the
	// batch before anything downstream sees it.
	if detail := g.scanBatch(); detail != "" {
		res.Health.note(g.batch, HealthRolloutSkip, detail)
		return
	}

	// Serial bookkeeping over the collected episodes, in episode order.
	batchBest := math.Inf(-1)
	nonEmpty := 0
	for _, ep := range g.eps {
		if ep.Len() == 0 {
			continue
		}
		nonEmpty++
		res.EpisodesRun++
		res.StepsRun += ep.Len()
		met.episodes.Inc()
		met.steps.Add(uint64(ep.Len()))
		total := ep.TotalReward()
		met.episodeReward.Observe(total)
		res.FinalReward = total
		if total > batchBest {
			batchBest = total
		}
	}
	if nonEmpty == 0 {
		return
	}
	if batchBest > res.BestReward {
		// Snapshot lazily, at most once per batch: the rollouts all ran
		// against the same frozen policy, so one clone covers every episode
		// of the batch.
		res.BestReward = batchBest
		res.Best = g.master.Clone()
	}

	// Fold the batch's state distribution into the batch-norm running
	// statistics, once, in episode order.
	for _, ep := range g.eps {
		for _, s := range ep.States {
			g.master.Net.UpdateStats(s)
		}
	}
	g.syncWorkers()

	g.computeCoeffs()

	// Per-episode gradient accumulation on the replicas.
	g.parallel(len(g.workers), numEp, func(w *trainWorker, e int) {
		ep := g.eps[e]
		g.steps[e] = 0
		if ep.Len() == 0 {
			return
		}
		w.policy.Net.ZeroGrad()
		for t := 0; t < ep.Len(); t++ {
			g.steps[e]++
			if c := g.coeffs[e][t]; c != 0 {
				w.policy.accumulateStep(ep.States[t], ep.Masks[t], ep.Actions[t], c)
			}
			if g.cfg.Entropy > 0 {
				w.policy.accumulateEntropy(ep.States[t], ep.Masks[t], g.cfg.Entropy)
			}
		}
		if g.grads[e] == nil {
			g.grads[e] = make([]float64, 0, w.policy.Net.GradSize())
		}
		g.grads[e] = w.policy.Net.FlattenGrads(g.grads[e])
	})

	// Merge shards in episode order and take the single Adam step.
	g.master.Net.ZeroGrad()
	var steps int
	for e := 0; e < numEp; e++ {
		if g.steps[e] == 0 {
			continue
		}
		g.master.Net.AddGrads(g.grads[e])
		steps += g.steps[e]
	}
	if steps == 0 {
		return
	}
	// Guard: a non-finite merged gradient (overflow in the accumulation)
	// would corrupt the Adam moments for every later batch. Drop the update.
	if !g.master.Net.GradsFinite() {
		g.master.Net.ZeroGrad()
		res.Health.note(g.batch, HealthGradSkip, "non-finite merged gradient")
		return
	}
	met.gradNorm.Set(g.master.Net.GradNorm())
	// Guard: snapshot the weights and optimizer moments, step, and verify.
	// If the step still produced non-finite weights, roll back to the last
	// good policy rather than continuing from a corrupted one.
	g.preParams = g.master.Net.FlattenParams(g.preParams)
	g.adam.Snapshot(&g.preAdam)
	g.adam.Step(float64(steps))
	// The step wrote the master's weights in place: a fused plan folded
	// before it (an Act on the master) would certify against old weights.
	g.master.Net.Refold()
	if !g.master.Net.ParamsFinite() {
		g.master.Net.SetParams(g.preParams)
		if err := g.adam.Restore(&g.preAdam); err != nil {
			panic("rl: rollback restore failed: " + err.Error()) // same optimizer, cannot happen
		}
		res.Health.note(g.batch, HealthRollback, "non-finite weights after update; rolled back")
	}
}

// safeRollout is rolloutInto converting a panic (an environment bug, or
// NaN logits leaving the masked softmax without a legal action) into an
// error message instead of killing the training process. Training mode is
// always false here: the batch trainer folds statistics in separately.
func safeRollout(ep *Episode, env Env, p *Policy, r *rand.Rand) (fail string) {
	defer func() {
		if rec := recover(); rec != nil {
			fail = fmt.Sprintf("rollout panic: %v", rec)
		}
	}()
	rolloutInto(ep, env, p, r, false)
	return ""
}

// scanBatch returns a description of the first rollout failure or
// non-finite value in the batch, or "" when the batch is clean.
func (g *engine) scanBatch() string {
	for e, msg := range g.epFail {
		if msg != "" {
			return fmt.Sprintf("episode %d: %s", e, msg)
		}
	}
	return scanEpisodes(g.eps)
}

// scanEpisodes returns a description of the first non-finite state or
// reward in the batch, or "" when everything is finite. Rewards stand in
// for the returns (a finite reward sequence has finite returns short of
// astronomical overflow, which the gradient guard still catches), and
// states stand in for the logits: finite weights on a finite state cannot
// produce non-finite logits.
func scanEpisodes(eps []*Episode) string {
	for e, ep := range eps {
		for t, r := range ep.Rewards {
			if !finite(r) {
				return fmt.Sprintf("episode %d step %d: reward %v", e, t, r)
			}
		}
		for t, s := range ep.States {
			for d, v := range s {
				if !finite(v) {
					return fmt.Sprintf("episode %d step %d: state[%d] = %v", e, t, d, v)
				}
			}
		}
	}
	return ""
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// computeCoeffs fills g.coeffs with the batch's per-step REINFORCE
// coefficients, reusing the engine's return and coefficient buffers.
func (g *engine) computeCoeffs() {
	batchCoeffs(g.eps, g.cfg.Gamma, g.coeffs, g.returns)
}

// batchCoeffs computes the per-step REINFORCE coefficients of a batch:
// discounted returns normalized per *position* across the batch (Eq. 11's
// \hat R_t and sigma_t). The baseline at a position is the mean return
// over the episodes at that same position, which removes the strong
// positional trend the returns carry (simplification errors only
// accumulate, so a whole-episode baseline would mostly encode "early
// actions look bad", not action quality).
//
// Position is the episode's progress key when the environment provides one
// (equal scan index for the RLTS MDPs, so episodes that skipped different
// numbers of points still compare like with like), falling back to the
// step index otherwise.
//
// coeffs and returns are per-episode output buffers of len(eps), resized
// in place (grown only when too small).
func batchCoeffs(eps []*Episode, gamma float64, coeffs, returns [][]float64) {
	for e, ep := range eps {
		returns[e] = ep.returnsInto(returns[e], gamma)
		c := coeffs[e]
		if cap(c) < ep.Len() {
			c = make([]float64, ep.Len())
		}
		c = c[:ep.Len()]
		for i := range c {
			c[i] = 0
		}
		coeffs[e] = c
	}
	// Group step references by position. Groups touch disjoint coefficient
	// entries and each group's statistics are accumulated in episode order,
	// so map iteration order does not affect the result.
	type ref struct{ ep, t int }
	groups := make(map[int][]ref)
	for e, ep := range eps {
		for t := 0; t < ep.Len(); t++ {
			key := t
			if len(ep.Keys) == ep.Len() {
				key = ep.Keys[t]
			}
			groups[key] = append(groups[key], ref{e, t})
		}
	}
	for _, refs := range groups {
		if len(refs) < 2 {
			continue // a single sample carries no comparative signal
		}
		var mean float64
		for _, rf := range refs {
			mean += returns[rf.ep][rf.t]
		}
		mean /= float64(len(refs))
		var varAcc float64
		for _, rf := range refs {
			d := returns[rf.ep][rf.t] - mean
			varAcc += d * d
		}
		std := math.Sqrt(varAcc / float64(len(refs)))
		if std < 1e-12 {
			continue
		}
		for _, rf := range refs {
			coeffs[rf.ep][rf.t] = (returns[rf.ep][rf.t] - mean) / std
		}
	}
}
