package core

import (
	"context"
	"fmt"
	"math/rand"

	"rlts/internal/rl"
	"rlts/internal/traj"
)

// BatchItem is one simplification job in a BatchEngine run.
type BatchItem struct {
	T traj.Trajectory
	W int
	// R is this item's sampling source when the engine runs in sampled
	// mode. Every item needs its own stream, consumed exactly as a
	// standalone Simplify call would consume it. Ignored (and may be
	// nil) in greedy mode.
	R *rand.Rand
}

// BatchResult is the per-item outcome of a BatchEngine run: the kept
// original indices, or the error that item failed with. Items fail
// independently — one malformed trajectory never poisons its batch.
type BatchResult struct {
	Kept []int
	Err  error
}

// BatchEngine applies one policy to many trajectories: it runs its items
// one after another through SimplifyCtx's decision loop, so every item's
// result is Simplify(p, item.T, item.W, opts, sample, item.R) by
// construction. Batch serving gets its throughput from sharding items
// across workers, each with its own engine over its own policy clone
// (DESIGN.md §12).
//
// A BatchEngine is not safe for concurrent use: the policy reuses its
// forward scratch across calls.
type BatchEngine struct {
	p      *rl.Policy
	opts   Options
	sample bool
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

// RunCtx simplifies every item and returns one result per item, in
// order. When ctx is canceled or its deadline passes, the item in flight
// stops within SimplifyCtx's check cadence and every still-unfinished
// item's result carries the wrapped ctx.Err() (already-finished items
// keep their kept indices).
func (e *BatchEngine) RunCtx(ctx context.Context, items []BatchItem) []BatchResult {
	res := make([]BatchResult, len(items))
	for i := range items {
		if err := ctx.Err(); err != nil {
			res[i].Err = fmt.Errorf("core: batch simplify: %w", err)
			continue
		}
		it := &items[i]
		res[i].Kept, res[i].Err = SimplifyCtx(ctx, e.p, it.T, it.W, e.opts, e.sample, it.R)
	}
	return res
}
