package check

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"rlts/internal/errm"
	"rlts/internal/geo"
	"rlts/internal/minsize"
	"rlts/internal/traj"
)

// minsize.Optimal (DP over feasible anchor spans) against brute-force
// subset enumeration judged by the independent reference formulas. Bounds
// are chosen in the gaps between achievable error values so a ~1e-15
// formula discrepancy cannot flip a feasibility verdict and fake a
// mismatch: the oracle is sharp, not flaky.

// gapBounds returns bounds sitting strictly between consecutive distinct
// achievable segment-error values of t (plus one below the minimum
// positive value and one above the maximum).
func gapBounds(tr traj.Trajectory, m errm.Measure) []float64 {
	var vals []float64
	for a := 0; a < len(tr)-1; a++ {
		for b := a + 1; b < len(tr); b++ {
			vals = append(vals, errm.SegmentError(m, tr, a, b))
		}
	}
	sort.Float64s(vals)
	var bounds []float64
	for i := 1; i < len(vals); i++ {
		lo, hi := vals[i-1], vals[i]
		if hi-lo > 1e-6*(1+hi) { // a real gap, not formula noise
			bounds = append(bounds, lo+(hi-lo)/2)
		}
	}
	if len(vals) > 0 {
		bounds = append(bounds, vals[len(vals)-1]*2+1)
	}
	// Cap the per-trajectory bound count: enough to probe several sharp
	// feasibility frontiers without blowing up the brute-force budget.
	const maxBounds = 8
	if len(bounds) > maxBounds {
		picked := make([]float64, 0, maxBounds)
		for i := 0; i < maxBounds; i++ {
			picked = append(picked, bounds[i*len(bounds)/maxBounds])
		}
		bounds = picked
	}
	return bounds
}

func TestOptimalMatchesBruteForce(t *testing.T) {
	for _, g := range moderateGenerators {
		g := g
		t.Run(g.name, func(t *testing.T) {
			rounds := scaled(6)
			for round := 0; round < rounds; round++ {
				r := rand.New(rand.NewSource(int64(6000 + round)))
				tr := g.gen(r, 5+r.Intn(7)) // brute force: n <= 11
				for _, m := range errm.Measures {
					for _, bound := range gapBounds(tr, m) {
						kept, err := minsize.Optimal(tr, bound, m)
						if err != nil {
							t.Fatalf("%s %s bound %v: %v", g.name, m, bound, err)
						}
						if e := errm.Error(m, tr, kept); e > bound {
							t.Fatalf("%s %s: Optimal error %v exceeds bound %v", g.name, m, e, bound)
						}
						want := bruteMinSize(tr, bound, m)
						if len(kept) != want {
							t.Fatalf("%s %s bound %v: Optimal kept %d, brute force %d (traj %v)",
								g.name, m, bound, len(kept), want, tr)
						}
						// Greedy must be feasible and can never beat Optimal.
						gk, err := minsize.Greedy(tr, bound, m)
						if err != nil {
							t.Fatal(err)
						}
						if e := errm.Error(m, tr, gk); e > bound {
							t.Fatalf("%s %s: Greedy error %v exceeds bound %v", g.name, m, e, bound)
						}
						if len(gk) < len(kept) {
							t.Fatalf("%s %s: Greedy kept %d < Optimal %d", g.name, m, len(gk), len(kept))
						}
					}
				}
			}
		})
	}
}

func TestSearchBudgetAlwaysMeetsBound(t *testing.T) {
	// SearchBudget must return a bound-satisfying result even when f is
	// aggressively non-monotone — here, a seeded random subset per call,
	// the worst case for the binary search's monotonicity assumption.
	for _, g := range moderateGenerators {
		g := g
		t.Run(g.name, func(t *testing.T) {
			rounds := scaled(5)
			for round := 0; round < rounds; round++ {
				r := rand.New(rand.NewSource(int64(7000 + round)))
				tr := g.gen(r, 15+r.Intn(15))
				fr := rand.New(rand.NewSource(int64(round)))
				f := func(t traj.Trajectory, w int) ([]int, error) {
					// Random subset of interior points, size <= w.
					n := len(t)
					perm := fr.Perm(n - 2)
					pick := perm[:min(w-2, n-2)]
					sort.Ints(pick)
					kept := []int{0}
					for _, i := range pick {
						kept = append(kept, i+1)
					}
					return append(kept, n-1), nil
				}
				for _, m := range errm.Measures {
					bound := errm.SegmentError(m, tr, 0, len(tr)-1) / 2
					kept, err := minsize.SearchBudget(tr, bound, m, f)
					if err != nil {
						t.Fatalf("%s %s: %v", g.name, m, err)
					}
					if e := errm.Error(m, tr, kept); e > bound {
						t.Fatalf("%s %s: SearchBudget error %v exceeds bound %v (kept %v)",
							g.name, m, e, bound, kept)
					}
				}
			}
		})
	}
}

func TestSearchBudgetNonMonotoneFallback(t *testing.T) {
	// A crafted f that is feasible at exactly one mid-range budget and
	// returns the (wildly infeasible) endpoints-only answer everywhere
	// below W=n. The trajectory is half zigzag — incompressible — and half
	// stationary — fully collapsible — so a genuinely small feasible
	// answer exists. Every budget the binary search probes is infeasible
	// except W=n, which is exactly the degenerate outcome the linear-scan
	// fallback exists to beat: it must find the one good budget instead of
	// surrendering to the identity.
	const n = 24
	tr := make(traj.Trajectory, 0, n)
	for i := 0; i < 12; i++ { // zigzag half: every interior point essential
		side := float64(1 - 2*(i%2))
		tr = append(tr, geo.Pt(float64(i), side*100, float64(i)))
	}
	for i := 12; i < n; i++ { // stationary half: interior points free
		tr = append(tr, geo.Pt(11, -100, float64(i)))
	}
	m := errm.SED
	// All zigzag points, the first stationary point, the last point:
	// error exactly 0 (stationary span collapses onto itself).
	good := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, n - 1}
	magic := len(good)
	f := func(t traj.Trajectory, w int) ([]int, error) {
		if w == magic {
			return good, nil
		}
		if w >= len(t) {
			kept := make([]int, len(t))
			for i := range kept {
				kept[i] = i
			}
			return kept, nil
		}
		return []int{0, len(t) - 1}, nil // infeasible: flattens the zigzag
	}
	bound := 1e-9
	if e := errm.Error(m, tr, good); e > bound {
		t.Fatalf("setup: good answer has error %v", e)
	}
	kept, err := minsize.SearchBudget(tr, bound, m, f)
	if err != nil {
		t.Fatal(err)
	}
	if e := errm.Error(m, tr, kept); e > bound {
		t.Fatalf("fallback result error %v exceeds bound", e)
	}
	if len(kept) != magic {
		t.Fatalf("fallback kept %d points, want the magic budget's %d (identity would be %d)",
			len(kept), magic, n)
	}
}

func TestSearchBudgetRejectsMalformedSimplifier(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := genRandomWalk(r, 30)
	bad := []func(traj.Trajectory, int) ([]int, error){
		func(t traj.Trajectory, w int) ([]int, error) { return []int{1, 2}, nil },        // missing endpoints
		func(t traj.Trajectory, w int) ([]int, error) { return []int{0, 5, 5, 29}, nil }, // not increasing
		func(t traj.Trajectory, w int) ([]int, error) { return []int{0, 99}, nil },       // out of range
		func(t traj.Trajectory, w int) ([]int, error) { return nil, nil },                // empty
	}
	for i, f := range bad {
		_, err := minsize.SearchBudget(tr, 1.0, errm.SED, f)
		if !errors.Is(err, minsize.ErrInvalidSimplification) {
			t.Errorf("malformed f #%d: err = %v, want ErrInvalidSimplification", i, err)
		}
	}
	// A plain error from f propagates unwrapped.
	sentinel := errors.New("boom")
	_, err := minsize.SearchBudget(tr, 1.0, errm.SED, func(traj.Trajectory, int) ([]int, error) {
		return nil, sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("f error not propagated: %v", err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
