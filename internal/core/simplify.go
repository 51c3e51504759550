package core

import (
	"context"
	"fmt"
	"math/rand"

	"rlts/internal/rl"
	"rlts/internal/traj"
)

// ctxCheckEvery is how many MDP steps pass between context checks in
// drive: frequent enough that cancellation lands within microseconds
// on any trajectory, rare enough to keep the per-step cost invisible next
// to the policy forward pass.
const ctxCheckEvery = 64

// Simplify runs the configured RLTS algorithm over t with storage budget w
// using the given policy and returns the kept original indices (always
// including 0 and len(t)-1, with len <= max(w, 2)).
//
// sample selects stochastic action selection (the paper samples from the
// policy in the online mode and takes the argmax in the batch mode). r is
// only used when sample is true and may be nil otherwise.
func Simplify(p *rl.Policy, t traj.Trajectory, w int, opts Options, sample bool, r *rand.Rand) ([]int, error) {
	return SimplifyCtx(context.Background(), p, t, w, opts, sample, r)
}

// SimplifyCtx is Simplify honoring a context: when ctx is canceled or its
// deadline passes, the scan stops promptly and ctx.Err() is returned
// (wrapped, so errors.Is(err, context.Canceled) and friends work). The
// HTTP service uses it to make slow simplification requests cancellable.
func SimplifyCtx(ctx context.Context, p *rl.Policy, t traj.Trajectory, w int, opts Options, sample bool, r *rand.Rand) ([]int, error) {
	return simplifyInto(ctx, nil, p, t, w, opts, sample, r)
}

// simplifyInto is SimplifyCtx flushing its counts into met, or into
// obs.Default() when met is nil.
func simplifyInto(ctx context.Context, met *coreMetricsSet, p *rl.Policy, t traj.Trajectory, w int, opts Options, sample bool, r *rand.Rand) ([]int, error) {
	if err := checkRun(opts, p, w, len(t), sample, r); err != nil {
		return nil, err
	}
	kept, steps, err := drive(ctx, t, w, opts, func(state []float64, mask []bool) int {
		return p.Act(state, mask, sample, r)
	}, nil)
	if err != nil {
		return nil, err
	}
	if met == nil {
		met = coreMetrics()
	}
	met.simplifyRuns.Inc()
	met.simplifySteps.Add(uint64(steps))
	met.policyFallbacks.Add(uint64(p.TakeFallbacks()))
	return kept, nil
}

// drive is the one decision loop of the scanning MDP: Reset, then choose
// and Step until done, checking ctx every ctxCheckEvery steps. observe,
// if not nil, sees each decision before its step. It returns the kept
// indices and the number of decisions.
func drive(ctx context.Context, t traj.Trajectory, w int, opts Options,
	choose func(state []float64, mask []bool) int,
	observe func(state []float64, mask []bool, a int)) ([]int, int, error) {
	env := newEnv(t, w, opts, false)
	state, mask, done := env.Reset()
	step := 0
	for ; !done; step++ {
		if step%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, step, fmt.Errorf("core: simplify: %w", err)
			}
		}
		a := choose(state, mask)
		if observe != nil {
			observe(state, mask, a)
		}
		state, mask, _, done = env.Step(a)
	}
	return env.Kept(), step, nil
}

// SimplifyRandom runs the MDP with a uniformly random policy over the
// legal actions. It is the "random policy" arm of the paper's policy
// ablation (§VI-B(4)), not a production simplifier.
func SimplifyRandom(t traj.Trajectory, w int, opts Options, r *rand.Rand) ([]int, error) {
	if err := checkRun(opts, nil, w, len(t), true, r); err != nil {
		return nil, err
	}
	kept, _, err := drive(context.Background(), t, w, opts, func(_ []float64, mask []bool) int {
		legal := legal(mask)
		return legal[r.Intn(len(legal))]
	}, nil)
	return kept, err
}

// SimplifyFixedAction runs the MDP always taking the given action when it
// is legal (falling back to the first legal action otherwise). With
// action 0 this is the "always drop the minimum-value point" hand-crafted
// rule that the learned policy is measured against in the policy ablation.
func SimplifyFixedAction(t traj.Trajectory, w int, opts Options, action int) ([]int, error) {
	if err := checkRun(opts, nil, w, len(t), false, nil); err != nil {
		return nil, err
	}
	if action < 0 || action >= opts.NumActions() {
		return nil, fmt.Errorf("core: fixed action %d out of range [0, %d)", action, opts.NumActions())
	}
	kept, _, err := drive(context.Background(), t, w, opts, func(_ []float64, mask []bool) int {
		if !mask[action] {
			return legal(mask)[0]
		}
		return action
	}, nil)
	return kept, err
}

// checkRun validates the preconditions every entry point into the
// scanning MDP shares: the options, the budget w, the trajectory length
// n, the policy's shape when a policy drives the run (p may be nil for
// the random and fixed-action rules), and a rand source when the run
// samples. A driver that learns w or n only later — a stream's length,
// a batch engine's per-item budgets — passes unbounded for it.
func checkRun(opts Options, p *rl.Policy, w, n int, sample bool, r *rand.Rand) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	if w < 2 {
		return fmt.Errorf("core: budget W must be >= 2, got %d", w)
	}
	if n < 2 {
		return traj.ErrTooShort
	}
	if p != nil && (p.Spec.In != opts.StateSize() || p.Spec.Out != opts.NumActions()) {
		return fmt.Errorf("core: policy shape (%d in, %d out) does not match options %s (k=%d, J=%d: want %d in, %d out)",
			p.Spec.In, p.Spec.Out, opts.Name(), opts.K, opts.J, opts.StateSize(), opts.NumActions())
	}
	if sample && r == nil {
		return fmt.Errorf("core: sampling requested without a rand source")
	}
	return nil
}

func legal(mask []bool) []int {
	out := make([]int, 0, len(mask))
	for i, ok := range mask {
		if ok {
			out = append(out, i)
		}
	}
	return out
}
