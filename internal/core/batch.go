package core

import (
	"context"
	"fmt"
	"math/rand"

	"rlts/internal/nn"
	"rlts/internal/rl"
	"rlts/internal/traj"
)

// BatchItem is one simplification job in a BatchEngine run.
type BatchItem struct {
	T traj.Trajectory
	W int
	// R is this item's sampling source when the engine runs in sampled
	// mode. Every item needs its own stream: the engine draws from it in
	// exactly the per-step order a standalone Simplify call would, which
	// is what makes batched and sequential results bit-identical. Ignored
	// (and may be nil) in greedy mode.
	R *rand.Rand
}

// BatchResult is the per-item outcome of a BatchEngine run: the kept
// original indices, or the error that item failed with. Items fail
// independently — one malformed trajectory never poisons its batch.
type BatchResult struct {
	Kept []int
	Err  error
}

// lane is the per-trajectory bookkeeping of an in-flight batch run.
type lane struct {
	env   keptEnv
	item  int       // index into the items/results slices
	state []float64 // env-owned scratch from the last Reset/Step
	mask  []bool    // env-owned scratch from the last Reset/Step
	r     *rand.Rand
	steps int
}

// BatchEngine steps many trajectory environments in lockstep, gathering
// their decision states into one matrix per round so a single
// nn.Network.ForwardBatch drives every in-flight simplification. Each
// round advances every unfinished environment by exactly one MDP step;
// finished environments leave the matrix (the active set is compacted),
// so late rounds run at the surviving width.
//
// The result of every item is bit-identical to a standalone
// Simplify(p, item.T, item.W, opts, sample, item.R) call, at any batch
// width: ForwardBatch rows match Forward exactly (see nn/batch.go), the
// per-row softmax is the same code the vector path runs, and sampled
// mode consumes each item's RNG in the same per-step order as the
// sequential loop. DESIGN.md §12 walks through the argument;
// internal/check's differential stage enforces it continuously.
//
// A BatchEngine is not safe for concurrent use — it reuses the policy's
// forward scratch and its own gather matrices across calls. Concurrent
// servers run one engine per worker over a cloned policy (rl.Policy.Clone
// copies weights and batch-norm statistics, preserving bit-identity).
type BatchEngine struct {
	p      *rl.Policy
	opts   Options
	sample bool

	states []float64 // gathered state matrix, reused across rounds and runs
	masks  [][]bool  // per-row legal-action masks, reused likewise
	lanes  []lane
}

// NewBatchEngine validates the configuration and returns an engine
// applying p under opts. sample selects stochastic action selection (the
// paper's online-mode inference); greedy argmax otherwise. The options
// and policy shape get SimplifyCtx's checks here, so a misconfigured
// engine fails at construction, not per item; each item's budget,
// length and rand source are checked when it runs.
func NewBatchEngine(p *rl.Policy, opts Options, sample bool) (*BatchEngine, error) {
	if p == nil {
		return nil, fmt.Errorf("core: batch engine needs a policy")
	}
	if err := checkRun(opts, p, unbounded, unbounded, false, nil); err != nil {
		return nil, err
	}
	return &BatchEngine{p: p, opts: opts, sample: sample}, nil
}

// NewBatchEngine returns a batch engine over a clone of the trained
// policy (safe to use alongside the original) in the variant's inference
// mode: sampled for the online variant, greedy argmax for the batch
// variants — the same convention as Trained.Simplify. The clone inherits
// the policy's kernel selection, so an engine built from a FastClone
// runs the FastMath kernels.
func (tr *Trained) NewBatchEngine() (*BatchEngine, error) {
	return NewBatchEngine(tr.Policy.Clone(), tr.Opts, tr.Opts.Variant == Online)
}

// SetKernel selects the inference kernel of the engine's policy:
// nn.KernelExact keeps the bit-identity contract above; nn.KernelFast
// trades it for the fused approximate kernels, whose divergence is
// bounded by the tolerance pillar in internal/check (argmax decisions
// never change on the adversarial families, so greedy results remain
// equal in practice — but the proof weakens from bitwise to measured).
func (e *BatchEngine) SetKernel(k nn.Kernel) { e.p.SetKernel(k) }

// Run simplifies every item and returns one result per item, in order.
func (e *BatchEngine) Run(items []BatchItem) []BatchResult {
	return e.RunCtx(context.Background(), items)
}

// RunCtx is Run honoring a context: when ctx is canceled or its deadline
// passes, every still-unfinished item's result carries the wrapped
// ctx.Err() (already-finished items keep their kept indices) and the
// engine returns promptly. Cancellation is checked once per lockstep
// round, which is at least as frequent as the sequential path's
// per-trajectory cadence.
func (e *BatchEngine) RunCtx(ctx context.Context, items []BatchItem) []BatchResult {
	res := make([]BatchResult, len(items))
	met := coreMetrics()
	lanes := e.lanes[:0]
	for i := range items {
		it := &items[i]
		if err := checkRun(e.opts, e.p, it.W, len(it.T), e.sample, it.R); err != nil {
			res[i].Err = err
			continue
		}
		env := newEnv(it.T, it.W, e.opts, false)
		state, mask, done := env.Reset()
		if done {
			// Degenerate episode (trajectory fits the budget): finished
			// before the first decision, exactly like the sequential loop.
			res[i].Kept = env.Kept()
			met.simplifyRuns.Inc()
			continue
		}
		lanes = append(lanes, lane{env: env, item: i, state: state, mask: mask, r: it.R})
	}
	e.lanes = lanes // keep the (possibly grown) backing array for reuse
	in, out := e.opts.StateSize(), e.opts.NumActions()

	for len(lanes) > 0 {
		if err := ctx.Err(); err != nil {
			werr := fmt.Errorf("core: batch simplify: %w", err)
			for i := range lanes {
				res[lanes[i].item].Err = werr
			}
			break
		}
		b := len(lanes)
		if cap(e.states) < b*in {
			e.states = make([]float64, b*in)
		}
		if cap(e.masks) < b {
			e.masks = make([][]bool, b)
		}
		states, masks := e.states[:b*in], e.masks[:b]
		for li := range lanes {
			copy(states[li*in:(li+1)*in], lanes[li].state)
			masks[li] = lanes[li].mask
		}
		probs := e.p.ProbsBatch(states, b, masks)
		// Act on every lane, compacting finished ones out in place. The
		// masks gathered above were consumed by ProbsBatch already, so a
		// Step overwriting its env's scratch cannot disturb other rows.
		keep := lanes[:0]
		for li := range lanes {
			l := &lanes[li]
			row := probs[li*out : (li+1)*out]
			var a int
			if e.sample {
				a = rl.SampleAction(row, l.r)
			} else {
				a = rl.GreedyAction(row)
			}
			state, mask, _, done := l.env.Step(a)
			l.steps++
			if done {
				res[l.item].Kept = l.env.Kept()
				// Same flush discipline as SimplifyCtx: one atomic pair
				// per finished run, never per MDP step.
				met.simplifyRuns.Inc()
				met.simplifySteps.Add(uint64(l.steps))
			} else {
				l.state, l.mask = state, mask
				keep = append(keep, *l)
			}
		}
		lanes = keep
	}
	// Drop env/trajectory references so the reusable lane backing array
	// does not pin finished episodes across runs.
	clear(e.lanes[:cap(e.lanes)])
	e.lanes = e.lanes[:0]
	return res
}
