package geo

import "math"

// Segment is the directed line segment from A to B. A segment of a
// simplified trajectory approximates the sub-trajectory of original points
// between (and including) its endpoints; the error measures in package errm
// quantify how badly.
type Segment struct {
	A, B Point
}

// Seg is a convenience constructor for a Segment.
func Seg(a, b Point) Segment { return Segment{A: a, B: b} }

// Length returns the Euclidean length of the segment.
func (s Segment) Length() float64 { return Dist(s.A, s.B) }

// Duration returns the time spanned by the segment (B.T - A.T).
// It can be zero for degenerate segments.
func (s Segment) Duration() float64 { return s.B.T - s.A.T }

// Speed returns the constant speed at which the object is interpreted to
// move along the segment: Length / Duration. A zero (or negative, for
// unsorted input) duration yields 0 speed, so degenerate segments never
// produce Inf/NaN. When both the length and the duration overflow float64
// (endpoints near ±MaxFloat64 in space and time), the ratio is recomputed
// from halved differences, which cannot overflow for finite endpoints.
func (s Segment) Speed() float64 {
	dt := s.Duration()
	if dt <= 0 {
		return 0
	}
	v := s.Length() / dt
	if math.IsNaN(v) || math.IsInf(dt, 0) {
		// Inf/Inf, or a finite length over an overflowed duration (which
		// the fast path collapses to 0): halving every difference keeps
		// them finite and the halves cancel in the ratio.
		hl := math.Hypot(s.B.X/2-s.A.X/2, s.B.Y/2-s.A.Y/2)
		hdt := s.B.T/2 - s.A.T/2
		if hdt <= 0 {
			return 0
		}
		return hl / hdt
	}
	return v
}

// Direction returns the heading of the segment in radians in (-pi, pi],
// measured counter-clockwise from the positive x-axis. A zero-length
// segment has direction 0.
func (s Segment) Direction() float64 {
	dx, dy := s.B.X-s.A.X, s.B.Y-s.A.Y
	if dx == 0 && dy == 0 {
		return 0
	}
	return math.Atan2(dy, dx)
}

// IsDegenerate reports whether the segment endpoints share a location.
func (s Segment) IsDegenerate() bool {
	return s.A.X == s.B.X && s.A.Y == s.B.Y
}

// ClosestParam returns the parameter u in [0, 1] such that Lerp(A, B, u)
// is the point on the segment closest to p's location. Inputs whose
// squared length overflows float64 are projected with normalized
// arithmetic instead, so extreme (but finite) coordinates never yield NaN.
func (s Segment) ClosestParam(p Point) float64 {
	a := PreparePED(s)
	return a.param(p)
}

// clamp01 clamps u to [0, 1], mapping NaN (a pathological magnitude
// spread where opposing contributions both overflow) and -0 to +0, as
// math.Max(0, math.Min(1, u)) after a NaN check does.
func clamp01(u float64) float64 {
	if !(u > 0) {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// TimeParam returns the parameter u in [0, 1] locating time t
// proportionally within the segment's time span. A degenerate time span
// maps everything to 0. A time span that overflows float64 is recomputed
// from halved timestamps (finite for finite inputs), so astronomically
// long segments still interpolate instead of collapsing to an endpoint.
func (s Segment) TimeParam(t float64) float64 {
	a := PrepareSED(s)
	return a.param(t)
}

// At returns the synchronized position on the segment at time t: the
// location the object would occupy at t if it moved along the segment at
// constant speed over the segment's time span.
func (s Segment) At(t float64) Point {
	return Lerp(s.A, s.B, s.TimeParam(t))
}
