package geo

import "math"

// interp is what SED and PED share about an anchor segment: its endpoint
// locations and their differences, which place a parameter u on it.
type interp struct {
	ax, ay, bx, by float64
	dx, dy         float64
}

func newInterp(s Segment) interp {
	return interp{
		ax: s.A.X, ay: s.A.Y, bx: s.B.X, by: s.B.Y,
		dx: s.B.X - s.A.X, dy: s.B.Y - s.A.Y,
	}
}

// dist returns the distance from p's location to the point at parameter
// u on the segment: Dist(p, Lerp(A, B, u)), without the timestamp.
func (s *interp) dist(p Point, u float64) float64 {
	return math.Hypot(p.X-lerp1(s.ax, s.bx, s.dx, u), p.Y-lerp1(s.ay, s.by, s.dy, u))
}

// SEDAnchor is an anchor segment prepared for synchronized Euclidean
// distances: its coordinate differences and its time span.
type SEDAnchor struct {
	interp
	// u = (t - t0) / dt locates a timestamp t, on halved timestamps when
	// the time span overflows float64 (half); flat (a zero or negative
	// time span) maps every t to 0.
	t0, dt     float64
	half, flat bool
}

// PrepareSED prepares s for SEDAnchor.Distance. It sets the fields one by
// one: a composite literal around newInterp's result made the compiler
// copy the anchor through memory with wider loads than the stores that
// built it, and the stalled store forwarding cost more than a short span
// scan.
func PrepareSED(s Segment) (a SEDAnchor) {
	a.ax, a.ay, a.bx, a.by = s.A.X, s.A.Y, s.B.X, s.B.Y
	a.dx, a.dy = s.B.X-s.A.X, s.B.Y-s.A.Y
	a.t0, a.dt = s.A.T, s.B.T-s.A.T
	switch {
	case a.dt <= 0:
		a.flat = true
	case math.IsInf(a.dt, 0):
		a.half, a.t0, a.dt = true, s.A.T/2, s.B.T/2-s.A.T/2
	}
	return a
}

// param is Segment.TimeParam on the prepared segment.
func (a *SEDAnchor) param(t float64) float64 {
	if a.flat {
		return 0
	}
	if a.half {
		t /= 2
	}
	return clamp01((t - a.t0) / a.dt)
}

// Distance returns SynchronizedDistance(s, p) for the prepared anchor s.
func (a *SEDAnchor) Distance(p Point) float64 {
	return a.dist(p, a.param(p.T))
}

// The constants of MaxDistance's skip rule.
const (
	// sedTame bounds the anchor coordinates of the fast loop: below it
	// a + u*d cannot overflow for u in [0, 1], so lerp1's fallback is
	// unreachable and its first form is the whole arithmetic.
	sedTame = 0x1p1000
	// sedMargin is how far, relatively, a residual square must fall below
	// the largest one so far to be skipped without its math.Hypot.
	sedMargin = 0x1p-40
	// sedFloor is the smallest square the rule ranks points by: above it
	// an underflowed product's absolute rounding is negligible.
	sedFloor = 0x1p-900
)

// MaxDistance returns the largest Distance from the prepared anchor to a
// point of pts, NaN distances ignored, and 0 when there is none: bit for
// bit what
//
//	var worst float64
//	for _, p := range pts {
//		if d := a.Distance(p); d > worst {
//			worst = d
//		}
//	}
//
// returns. This is the SED span scan of Eq. 12, and it calls math.Hypot
// only for the points whose distance could still be the largest.
//
// When the anchor is tame (a finite positive time span, so neither the
// flat nor the halved time path applies, and every coordinate below
// 2^1000 in magnitude, so lerp1's fallback is unreachable), the loop forms
// each point's residual (ex, ey) with Distance's own operations in
// Distance's order, and its square s = ex² + ey². Let S be the exact
// ex² + ey² and ε = 2^-53. A point is skipped when s is below the running
// maximum square times 1 − 2^-40; the point with the maximum square is
// the candidate, whose math.Hypot waits until another square beats it
// (then it is computed only if it lies within the margin of the new one)
// or the span ends. Every other point, including one whose s is NaN, +Inf
// or below 2^-900, takes math.Hypot(ex, ey) directly, as Distance does.
// The result is the largest of the math.Hypot values computed.
//
// No skipped point can be the maximum. Each product and the sum round
// once, and an underflowed product is off by at most 2^-1074 absolutely.
// Every square a point is compared with is a candidate's, in
// [2^-900, MaxFloat64], and 2^-1074 is below 2^-170 of any such square,
// so a candidate's s is within 3ε of its S relatively, and a skipped
// point's S is below its s/(1 − ε)² plus a negligible term. math.Hypot(ex, ey) =
// p·sqrt(1 + (q/p)²) with p ≥ q, five roundings, is within 4ε of √S (a
// subnormal result adds at most 2^-1074, again negligible). A point
// skipped against a running maximum, which is at most the final
// candidate c's square, then has S < S_c·(1 − 2^-40)(1 + 9ε), so its
// distance is below √S_c·(1 − 2^-41 + 9ε), while c's is at least
// √S_c·(1 − 4ε): strictly smaller, since 2^-41 is over 300 times 13ε.
// A displaced candidate outside the margin is such a point too.
// So the points that got math.Hypot include one with the largest
// distance; the maximum does not depend on the order it is taken in, so
// the returned bits are the loop's. Any other anchor runs that loop
// itself.
func (a *SEDAnchor) MaxDistance(pts []Point) float64 {
	var worst float64
	if a.flat || a.half || !(a.dt <= math.MaxFloat64) ||
		!(math.Abs(a.ax) < sedTame && math.Abs(a.ay) < sedTame &&
			math.Abs(a.bx) < sedTame && math.Abs(a.by) < sedTame) {
		for _, p := range pts {
			if d := a.Distance(p); d > worst {
				worst = d
			}
		}
		return worst
	}
	// best is the candidate's square (0 before the first), (cx, cy) its
	// residual and lim the square below which a point is skipped.
	var best, lim, cx, cy float64
	for i := range pts {
		p := &pts[i]
		u := clamp01((p.T - a.t0) / a.dt)
		ex := p.X - (a.ax + u*a.dx)
		ey := p.Y - (a.ay + u*a.dy)
		s := ex*ex + ey*ey
		if s < lim {
			continue
		}
		if s > best && s >= sedFloor && s <= math.MaxFloat64 {
			if best >= s*(1-sedMargin) {
				if d := math.Hypot(cx, cy); d > worst {
					worst = d
				}
			}
			best, lim, cx, cy = s, s*(1-sedMargin), ex, ey
			continue
		}
		if d := math.Hypot(ex, ey); d > worst {
			worst = d
		}
	}
	if best > 0 {
		if d := math.Hypot(cx, cy); d > worst {
			worst = d
		}
	}
	return worst
}

// PEDAnchor is an anchor segment prepared for perpendicular Euclidean
// distances: its coordinate differences and squared length, or, when the
// squared length overflows float64, its direction normalised by its
// largest half-component (halving keeps differences of finite values
// finite), so no square of a raw coordinate difference is ever formed.
type PEDAnchor struct {
	interp
	// u = ((x - ox)*ux + (y - oy)*uy) / den, and then / m when wide,
	// where x and y are the point's coordinates, halved when wide; flat
	// (a zero-length segment) maps every point to 0.
	ox, oy, ux, uy, den, m float64
	wide, flat             bool
}

// PreparePED prepares s for PEDAnchor.Distance.
func PreparePED(s Segment) PEDAnchor {
	a := PEDAnchor{interp: newInterp(s), ox: s.A.X, oy: s.A.Y}
	a.ux, a.uy = a.dx, a.dy
	a.den = a.dx*a.dx + a.dy*a.dy
	switch {
	case a.den == 0:
		a.flat = true
	case math.IsInf(a.den, 0):
		hx, hy := s.B.X/2-s.A.X/2, s.B.Y/2-s.A.Y/2
		a.m = math.Max(math.Abs(hx), math.Abs(hy))
		if a.m == 0 {
			a.flat = true
			break
		}
		// u = (v·d)/|d|² with d = 2m·(ux, uy) and v twice the halved
		// offset; the factors of two cancel. Dividing by the O(1) norm
		// first leaves one division by m, which is huge on this path.
		a.wide, a.ox, a.oy = true, s.A.X/2, s.A.Y/2
		a.ux, a.uy = hx/a.m, hy/a.m
		a.den = a.ux*a.ux + a.uy*a.uy
	}
	return a
}

// param is Segment.ClosestParam on the prepared segment.
func (a *PEDAnchor) param(p Point) float64 {
	if a.flat {
		return 0
	}
	x, y := p.X, p.Y
	if a.wide {
		x, y = x/2, y/2
	}
	u := ((x-a.ox)*a.ux + (y-a.oy)*a.uy) / a.den
	if a.wide {
		u /= a.m
	}
	return clamp01(u)
}

// Distance returns PerpendicularDistance(s, p) for the prepared anchor s.
func (a *PEDAnchor) Distance(p Point) float64 {
	return a.dist(p, a.param(p))
}

// DADAnchor is an anchor segment prepared for direction-aware distances:
// its heading, and whether it is zero-length.
type DADAnchor struct {
	heading float64
	flat    bool
}

// PrepareDAD prepares s for DADAnchor.Distance.
func PrepareDAD(s Segment) DADAnchor {
	return DADAnchor{heading: s.Direction(), flat: s.IsDegenerate()}
}

// Distance returns DirectionDistance(s, m) for the prepared anchor s.
func (a DADAnchor) Distance(m Segment) float64 {
	if a.flat || m.IsDegenerate() {
		return 0
	}
	return AngularDifference(a.heading, m.Direction())
}

// SADAnchor is an anchor segment prepared for speed-aware distances: its
// constant-speed interpretation.
type SADAnchor struct {
	speed float64
}

// PrepareSAD prepares s for SADAnchor.Distance.
func PrepareSAD(s Segment) SADAnchor {
	return SADAnchor{speed: s.Speed()}
}

// Distance returns SpeedDistance(s, m) for the prepared anchor s.
func (a SADAnchor) Distance(m Segment) float64 {
	b := m.Speed()
	if math.IsInf(a.speed, 1) && math.IsInf(b, 1) {
		return 0
	}
	return math.Abs(a.speed - b)
}

// PerpendicularDistance returns the shortest Euclidean distance from p's
// location to the segment s (distance to the closest point on the segment,
// which is the standard PED primitive).
func PerpendicularDistance(s Segment, p Point) float64 {
	a := PreparePED(s)
	return a.Distance(p)
}

// SynchronizedDistance returns the synchronized Euclidean distance (SED)
// from p to the segment s: the distance between p's location and the
// position on s synchronized to p's timestamp.
func SynchronizedDistance(s Segment, p Point) float64 {
	a := PrepareSED(s)
	return a.Distance(p)
}

// AngularDifference returns the absolute difference between two headings
// (radians), folded into [0, pi].
func AngularDifference(a, b float64) float64 {
	d := math.Abs(a - b)
	if d >= 2*math.Pi {
		// math.Mod(d, 2π) returns d itself below 2π, so only a larger
		// difference (or Inf, which Mod turns into NaN) needs the call.
		d = math.Mod(d, 2*math.Pi)
	}
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// DirectionDistance returns the direction-aware distance (DAD primitive)
// between the anchor segment s and the motion segment m: the angular
// difference of their headings in [0, pi] radians. Degenerate segments
// (zero length) contribute their 0 heading, matching the interpretation
// that a stationary object has no preferred direction.
func DirectionDistance(s, m Segment) float64 {
	return PrepareDAD(s).Distance(m)
}

// SpeedDistance returns the speed-aware distance (SAD primitive) between
// the anchor segment s and the motion segment m: the absolute difference
// of their constant-speed interpretations. Two speeds that both saturate
// to +Inf (true values beyond float64 range) compare equal — returning 0
// instead of the Inf-Inf NaN the naive subtraction would produce.
func SpeedDistance(s, m Segment) float64 {
	return PrepareSAD(s).Distance(m)
}
