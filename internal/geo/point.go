// Package geo provides the low-level spatio-temporal geometry used by the
// trajectory simplification algorithms: points, segments, and the distance,
// angle and speed primitives the four error measurements are built from.
//
// All coordinates are planar (x, y) in an arbitrary but consistent unit
// (the paper reports errors in units of 10 m); timestamps are float64
// seconds. The package is allocation-free on the hot paths.
//
// # Prepared anchors
//
// Each measure's distance has one implementation: a prepared anchor
// (SEDAnchor, PEDAnchor, DADAnchor, SADAnchor). Its constructor computes
// once what every point covered by an anchor segment shares, such as the
// coordinate differences, the time span or the heading, and its Distance
// method runs the per-point arithmetic, keeping every per-point overflow
// fallback. A span scan prepares its anchor once and calls Distance per
// covered point; SynchronizedDistance, PerpendicularDistance,
// DirectionDistance, SpeedDistance, Segment.TimeParam and
// Segment.ClosestParam are the prepared form applied to one point, so
// both routes produce the same float64 bits. Anchors are plain values
// and allocate nothing.
//
// # The SED span kernel
//
// SEDAnchor.MaxDistance is the SED span scan of Eq. 12: the largest
// Distance from the anchor to a span's points. It forms each point's
// residual with Distance's own arithmetic, plus the residual's square, and
// calls math.Hypot only for points that could still be the maximum: the
// point with the largest square (once, when the span ends or a larger
// square displaces it within the margin), any point whose square is within
// 2^-40 of the largest so far, and any point whose square is NaN, +Inf or
// below 2^-900. A guard admits only anchors with a finite positive time
// span and coordinates below 2^1000, so the loop needs none of Distance's
// fallbacks; any other anchor runs the per-point Distance loop. The
// method's doc proves that a skipped point's distance is strictly below
// the maximum, given the rounding of the square and of math.Hypot, so the
// returned bits are the per-point loop's. math.Hypot stays the one
// distance primitive: the kernel only decides which points need it.
package geo

import (
	"fmt"
	"math"
)

// Point is a spatio-temporal point: a location (X, Y) observed at time T.
type Point struct {
	X, Y float64
	T    float64
}

// Pt is a convenience constructor for a Point.
func Pt(x, y, t float64) Point { return Point{X: x, Y: y, T: t} }

// Dist returns the Euclidean distance between the locations of p and q.
func Dist(p, q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Equal reports whether p and q have identical coordinates and timestamps.
func (p Point) Equal(q Point) bool {
	return p.X == q.X && p.Y == q.Y && p.T == q.T
}

// String renders the point as "(x, y)@t".
func (p Point) String() string {
	return fmt.Sprintf("(%.6g, %.6g)@%.6g", p.X, p.Y, p.T)
}

// IsFinite reports whether all fields of p are finite numbers.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0) &&
		!math.IsNaN(p.T) && !math.IsInf(p.T, 0)
}

// Lerp linearly interpolates between the locations of p and q with
// parameter u in [0, 1]: u = 0 yields p's location, u = 1 yields q's.
// The timestamp of the result is interpolated as well. When a coordinate
// difference overflows float64 (endpoints near opposite extremes of the
// range), the affected component falls back to the convex form
// (1-u)*a + u*b, which cannot overflow for u in [0, 1] and finite
// endpoints, so representable interpolants are never lost to an
// intermediate Inf.
func Lerp(p, q Point, u float64) Point {
	return Point{
		X: lerp1(p.X, q.X, q.X-p.X, u),
		Y: lerp1(p.Y, q.Y, q.Y-p.Y, u),
		T: lerp1(p.T, q.T, q.T-p.T, u),
	}
}

// lerp1 interpolates one coordinate from a to b, given their difference
// d = b-a, which a prepared anchor computes once for every point.
func lerp1(a, b, d, u float64) float64 {
	v := a + u*d
	if math.IsInf(v, 0) || math.IsNaN(v) {
		// b-a overflowed (or u*(b-a) produced 0*Inf): the convex form is
		// bounded by max(|a|, |b|) for u in [0, 1], hence finite.
		return (1-u)*a + u*b
	}
	return v
}
