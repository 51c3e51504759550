package core

import (
	"context"

	"rlts/internal/rl"
	"rlts/internal/traj"
)

// DecisionTrace records every policy decision of one greedy simplification
// run: the state the policy saw, the legal-action mask, the action the
// argmax chose, and the final kept indices. The tolerance pillar in
// internal/check replays the states through the exact and the fused
// forward and compares distributions and decisions on real
// decision-state inputs rather than synthetic vectors.
type DecisionTrace struct {
	// States holds len(Actions) row-major state rows of StateSize width.
	States []float64
	// Masks holds one legal-action mask per decision. Entries alias
	// nothing — each mask is an independent copy.
	Masks [][]bool
	// Actions holds the greedy action taken at each decision.
	Actions []int
	// Kept holds the simplification result (kept original indices).
	Kept []int
	// StateSize and NumActions record the row widths of States and Masks.
	StateSize, NumActions int
}

// TraceGreedy runs a greedy (argmax) simplification of t with budget w and
// returns the full decision trace. The kept indices are identical to
// Simplify(p, t, w, opts, false, nil) — the trace only copies out what the
// sequential loop already computes. Intended for differential testing and
// debugging, not hot paths: every state and mask is copied.
func TraceGreedy(p *rl.Policy, t traj.Trajectory, w int, opts Options) (*DecisionTrace, error) {
	if err := checkRun(opts, p, w, len(t), false, nil); err != nil {
		return nil, err
	}
	tr := &DecisionTrace{StateSize: opts.StateSize(), NumActions: opts.NumActions()}
	kept, _, err := drive(context.Background(), t, w, opts, func(state []float64, mask []bool) int {
		return p.Act(state, mask, false, nil)
	}, func(state []float64, mask []bool, a int) {
		tr.States = append(tr.States, state...)
		tr.Masks = append(tr.Masks, append([]bool(nil), mask...))
		tr.Actions = append(tr.Actions, a)
	})
	if err != nil {
		return nil, err
	}
	tr.Kept = kept
	return tr, nil
}
