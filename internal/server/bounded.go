// The error-bounded serving mode: POST /v1/simplify with a "bound"
// field flips the request from Min-Error (fixed budget W, smallest
// error) to Min-Size (fixed error bound, smallest output). Three
// backends serve it:
//
//   - CISED — one-pass SED-bounded (internal/baseline/online)
//   - OPERB — one-pass PED-bounded (internal/baseline/online)
//   - Min-Size search — minsize.SearchBudgetCtx over a registered RL
//     policy (or minsize.Greedy when none matches the measure), the
//     only bounded option for DAD/SAD
//
// The "algorithm" field selects: "" routes by measure (SED→CISED,
// PED→OPERB, DAD/SAD→search), "auto" asks adaptive.RecommendBounded,
// "cised"/"operb" force a one-pass (the measure must match),
// "minsize" forces the search, and a registered policy name runs the
// search over that policy. Every response is re-scored by the exact
// errm.Error oracle and reports "bound_met" honestly — the one-pass
// algorithms guarantee it by construction, the search by verification.
package server

import (
	"context"
	"fmt"
	"math"
	"strings"

	"rlts/internal/adaptive"
	baseOnline "rlts/internal/baseline/online"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/minsize"
	"rlts/internal/traj"
)

// checkBound validates the budget fields of a request that carries
// "bound": a finite, non-negative bound, and no w/ratio beside it.
func checkBound(req *simplifyRequest) error {
	bound := *req.Bound
	if bound < 0 || math.IsNaN(bound) || math.IsInf(bound, 0) {
		return fmt.Errorf("bound must be finite and >= 0, got %v", bound)
	}
	if req.W != 0 || req.Ratio != 0 {
		return fmt.Errorf("bound is mutually exclusive with w/ratio: a request fixes either the error or the budget")
	}
	return nil
}

// runBounded routes an error-bounded request to its backend.
func (s *Server) runBounded(ctx context.Context, algo string, t traj.Trajectory, bound float64, m errm.Measure) (string, []int, error) {
	var choice adaptive.BoundedAlgo
	switch algo {
	case "":
		switch m {
		case errm.SED:
			choice = adaptive.BoundedCISED
		case errm.PED:
			choice = adaptive.BoundedOPERB
		default:
			choice = adaptive.BoundedMinSize
		}
	case "auto":
		choice, _ = adaptive.RecommendBounded(t, m)
	case "cised":
		if m != errm.SED {
			return "", nil, fmt.Errorf("server: cised bounds SED only, not %v (omit algorithm to route by measure)", m)
		}
		choice = adaptive.BoundedCISED
	case "operb":
		if m != errm.PED {
			return "", nil, fmt.Errorf("server: operb bounds PED only, not %v (omit algorithm to route by measure)", m)
		}
		choice = adaptive.BoundedOPERB
	case "minsize":
		choice = adaptive.BoundedMinSize
	default:
		// A registered policy name runs the Min-Size search over that
		// policy; anything else is unknown.
		if p := s.policy(algo, m); p != nil {
			return s.searchBudget(ctx, p, t, bound, m)
		}
		return "", nil, fmt.Errorf("server: unknown bounded algorithm %q (want cised, operb, minsize, auto or a policy name with a matching measure)", algo)
	}
	switch choice {
	case adaptive.BoundedCISED:
		kept, err := baseOnline.CISED(t, bound)
		return "CISED", kept, err
	case adaptive.BoundedOPERB:
		kept, err := baseOnline.OPERB(t, bound)
		return "OPERB", kept, err
	default:
		return s.searchBudget(ctx, s.policyForMeasure(m), t, bound, m)
	}
}

// policyForMeasure picks the registered policy for m, preferring the
// lexicographically-smallest name for determinism; nil when none match.
func (s *Server) policyForMeasure(m errm.Measure) *core.Trained {
	suffix := policyKey("", m)
	var bestKey string
	var best *core.Trained
	for k, p := range s.policies {
		if strings.HasSuffix(k, suffix) && (best == nil || k < bestKey) {
			bestKey, best = k, p
		}
	}
	return best
}

// searchBudget runs the Min-Size binary search over p (an exclusive
// pooled clone, like every policy run), or over minsize.Greedy when no
// policy serves the measure. Greedy is itself bound-respecting, so the
// fallback answers directly without the search.
func (s *Server) searchBudget(ctx context.Context, p *core.Trained, t traj.Trajectory, bound float64, m errm.Measure) (string, []int, error) {
	if p == nil {
		kept, err := minsize.Greedy(t, bound, m)
		return "Min-Size(Greedy)", kept, err
	}
	c := s.simp.get(p)
	defer s.simp.put(p, c)
	kept, err := minsize.SearchBudgetCtx(ctx, t, bound, m, func(tr traj.Trajectory, w int) ([]int, error) {
		return c.SimplifyGreedyCtx(ctx, tr, w)
	})
	return "Min-Size(" + p.Opts.Name() + ")", kept, err
}
