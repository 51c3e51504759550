package batch

import (
	"fmt"
	"math"

	"rlts/internal/geo"
	"rlts/internal/traj"
)

// SpanSearch simplifies t to at most w points under the direction-aware
// distance (DAD), following the span-search idea: binary-search the
// smallest error bound tau for which a greedy maximal-span cover needs at
// most w points, then return that cover.
//
// The greedy cover extends each anchor segment as far as possible while
// the segment direction stays within tau of every original motion
// direction in its span — the direction-sector feasibility test of the
// original algorithm. The binary search runs a fixed number of iterations
// over [0, pi], giving the O(c n log n)-style behaviour the paper cites.
func SpanSearch(t traj.Trajectory, w int) ([]int, error) {
	n := len(t)
	if err := checkArgs(n, w); err != nil {
		return nil, err
	}
	if n <= w {
		return allIndices(n), nil
	}
	// Motion directions of the original segments; nil-direction (stationary)
	// segments impose no constraint, mirroring geo.DirectionDistance.
	dirs := make([]float64, n-1)
	moving := make([]bool, n-1)
	for i := 0; i < n-1; i++ {
		s := t.Segment(i, i+1)
		moving[i] = !s.IsDegenerate()
		dirs[i] = s.Direction()
	}

	lo, hi := 0.0, math.Pi
	var best []int
	if kept := greedyCover(t, dirs, moving, hi); len(kept) <= w {
		best = kept
	} else {
		return nil, fmt.Errorf("batch: SpanSearch cannot meet budget %d even at tau=pi", w)
	}
	for iter := 0; iter < 48; iter++ {
		mid := (lo + hi) / 2
		kept := greedyCover(t, dirs, moving, mid)
		if len(kept) <= w {
			hi = mid
			best = kept
		} else {
			lo = mid
		}
	}
	return best, nil
}

// greedyCover returns a simplification whose every segment has DAD error
// at most tau, using greedy maximal spans.
func greedyCover(t traj.Trajectory, dirs []float64, moving []bool, tau float64) []int {
	n := len(t)
	kept := []int{0}
	a := 0
	for a < n-1 {
		// Extend b as far as the direction constraint allows.
		b := a + 1
		for b < n-1 && spanOK(t, dirs, moving, a, b+1, tau) {
			b++
		}
		kept = append(kept, b)
		a = b
	}
	return kept
}

// spanOK reports whether the anchor segment (a, b) stays within tau of all
// motion directions in [a, b).
func spanOK(t traj.Trajectory, dirs []float64, moving []bool, a, b int, tau float64) bool {
	anchor := t.Segment(a, b)
	if anchor.IsDegenerate() {
		// A degenerate anchor has no direction; it is acceptable only if
		// nothing in the span moves either.
		for j := a; j < b; j++ {
			if moving[j] {
				return false
			}
		}
		return true
	}
	ad := anchor.Direction()
	for j := a; j < b; j++ {
		if !moving[j] {
			continue
		}
		if geo.AngularDifference(ad, dirs[j]) > tau {
			return false
		}
	}
	return true
}
