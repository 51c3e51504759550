// Package traj defines the Trajectory type shared by the whole system,
// together with validation, summary statistics (Table I style), and CSV
// input/output.
package traj

import (
	"errors"
	"fmt"

	"rlts/internal/geo"
)

// Trajectory is a time-ordered sequence of spatio-temporal points.
// The zero value is an empty trajectory.
type Trajectory []geo.Point

// ErrTooShort is returned when an operation needs more points than the
// trajectory has (e.g. simplification needs at least two endpoints).
var ErrTooShort = errors.New("traj: trajectory too short")

// ErrNotOrdered is returned by Validate when timestamps are not strictly
// increasing.
var ErrNotOrdered = errors.New("traj: timestamps not strictly increasing")

// ErrDuplicateTime is the duplicate-timestamp case of ErrNotOrdered (it
// wraps it, so errors.Is(err, ErrNotOrdered) still holds): two samples
// claim the same instant, as re-sent fixes do, which ingest can classify
// separately from genuinely regressed clocks.
var ErrDuplicateTime = fmt.Errorf("%w: duplicate timestamp", ErrNotOrdered)

// ErrNotFinite is returned by Validate when a point contains NaN or Inf.
var ErrNotFinite = errors.New("traj: non-finite coordinate")

// FromPoints builds a validated trajectory from raw (x, y, t) triples —
// the constructor for externally-supplied data (HTTP payloads, decoded
// files). It rejects NaN/Inf coordinates and non-increasing timestamps
// with a descriptive error instead of letting garbage propagate into the
// error measures, and requires at least two points (nothing shorter can be
// simplified).
func FromPoints(points [][3]float64) (Trajectory, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 points, got %d", ErrTooShort, len(points))
	}
	t := make(Trajectory, len(points))
	for i, p := range points {
		t[i].X, t[i].Y, t[i].T = p[0], p[1], p[2]
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Len returns the number of points.
func (t Trajectory) Len() int { return len(t) }

// Duration returns the time span covered by the trajectory, in seconds.
func (t Trajectory) Duration() float64 {
	if len(t) < 2 {
		return 0
	}
	return t[len(t)-1].T - t[0].T
}

// PathLength returns the total Euclidean length along the trajectory.
func (t Trajectory) PathLength() float64 {
	var sum float64
	for i := 1; i < len(t); i++ {
		sum += geo.Dist(t[i-1], t[i])
	}
	return sum
}

// Segment returns the directed segment from point i to point j.
func (t Trajectory) Segment(i, j int) geo.Segment {
	return geo.Seg(t[i], t[j])
}

// Validate checks that the trajectory is usable by the simplification
// algorithms: all points finite and timestamps strictly increasing.
func (t Trajectory) Validate() error {
	for i, p := range t {
		if !p.IsFinite() {
			return fmt.Errorf("%w: point %d = %v", ErrNotFinite, i, p)
		}
		if i > 0 && p.T <= t[i-1].T {
			base := ErrNotOrdered
			if p.T == t[i-1].T {
				base = ErrDuplicateTime
			}
			return fmt.Errorf("%w: point %d (t=%v) after point %d (t=%v)",
				base, i, p.T, i-1, t[i-1].T)
		}
	}
	return nil
}

// Pick returns the simplified trajectory consisting of the points of t at
// the given (strictly increasing, 0-based) indices. It panics if the
// indices are out of range or not strictly increasing: callers construct
// index sets programmatically and a violation is a bug, not bad input.
func (t Trajectory) Pick(indices []int) Trajectory {
	out := make(Trajectory, 0, len(indices))
	prev := -1
	for _, ix := range indices {
		if ix <= prev || ix >= len(t) {
			panic(fmt.Sprintf("traj: Pick index %d invalid (prev %d, len %d)", ix, prev, len(t)))
		}
		out = append(out, t[ix])
		prev = ix
	}
	return out
}

// Equal reports whether two trajectories are identical point for point.
func (t Trajectory) Equal(o Trajectory) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// IsSimplificationOf reports whether t is a valid simplified trajectory of
// orig: a subsequence of orig that keeps orig's first and last points.
func (t Trajectory) IsSimplificationOf(orig Trajectory) bool {
	if len(orig) < 2 || len(t) < 2 {
		return false
	}
	if !t[0].Equal(orig[0]) || !t[len(t)-1].Equal(orig[len(orig)-1]) {
		return false
	}
	j := 0
	for _, p := range t {
		for j < len(orig) && !orig[j].Equal(p) {
			j++
		}
		if j == len(orig) {
			return false
		}
		j++
	}
	return true
}
