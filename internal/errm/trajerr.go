package errm

import (
	"fmt"

	"rlts/internal/traj"
)

// Error returns eps(T') for the simplified trajectory identified by the
// strictly increasing kept indices (which must start at 0 and end at
// len(t)-1): the maximum segment error over all anchor segments.
// This is the Min-Error objective the paper minimizes.
func Error(m Measure, t traj.Trajectory, kept []int) float64 {
	if err := checkKept(t, kept); err != nil {
		panic(err)
	}
	var worst float64
	for i := 1; i < len(kept); i++ {
		if e := SegmentError(m, t, kept[i-1], kept[i]); e > worst {
			worst = e
		}
	}
	return worst
}

// MeanError returns the mean per-point error of the simplified trajectory:
// the average over all original points of the error w.r.t. their anchor
// segments. It is not the paper's objective but is useful as a secondary
// diagnostic (a simplification can have a small max error but a poor fit
// everywhere, or vice versa).
func MeanError(m Measure, t traj.Trajectory, kept []int) float64 {
	if err := checkKept(t, kept); err != nil {
		panic(err)
	}
	if len(t) == 0 {
		return 0
	}
	var sum float64
	var cnt int
	for i := 1; i < len(kept); i++ {
		a, b := kept[i-1], kept[i]
		if b <= a+1 {
			continue
		}
		an := Prepare(m, t, a, b)
		for j := a + 1; j < b; j++ {
			sum += an.PointError(j)
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// ErrorOfTrajectory computes eps(T') when the simplified trajectory is
// given as points rather than indices. Every point of simplified must
// appear in t (it must be a genuine simplification); otherwise an error is
// returned.
func ErrorOfTrajectory(m Measure, t, simplified traj.Trajectory) (float64, error) {
	kept, err := KeptIndices(t, simplified)
	if err != nil {
		return 0, err
	}
	return Error(m, t, kept), nil
}

// KeptIndices maps a simplified trajectory back to the indices of its
// points in the original trajectory.
func KeptIndices(t, simplified traj.Trajectory) ([]int, error) {
	kept := make([]int, 0, len(simplified))
	j := 0
	for si, p := range simplified {
		for j < len(t) && !t[j].Equal(p) {
			j++
		}
		if j == len(t) {
			return nil, fmt.Errorf("errm: simplified point %d (%v) not found in original", si, p)
		}
		kept = append(kept, j)
		j++
	}
	if len(kept) < 2 || kept[0] != 0 || kept[len(kept)-1] != len(t)-1 {
		return nil, fmt.Errorf("errm: simplified trajectory must keep both endpoints")
	}
	return kept, nil
}

// CheckKept reports whether kept is a well-formed simplification index set
// for t: at least two strictly increasing indices spanning [0, len(t)-1].
// It is the non-panicking form of the validation Error performs, for
// callers handling untrusted simplifier output (e.g. minsize.SearchBudget
// probing an arbitrary MinErrorFunc).
func CheckKept(t traj.Trajectory, kept []int) error {
	return checkKept(t, kept)
}

func checkKept(t traj.Trajectory, kept []int) error {
	if len(kept) < 2 {
		return fmt.Errorf("errm: need at least 2 kept indices, got %d", len(kept))
	}
	if kept[0] != 0 || kept[len(kept)-1] != len(t)-1 {
		return fmt.Errorf("errm: kept indices must span [0, %d], got [%d, %d]",
			len(t)-1, kept[0], kept[len(kept)-1])
	}
	for i := 1; i < len(kept); i++ {
		if kept[i] <= kept[i-1] {
			return fmt.Errorf("errm: kept indices not strictly increasing at %d", i)
		}
	}
	return nil
}
