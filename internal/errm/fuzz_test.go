package errm

import (
	"encoding/binary"
	"math"
	"testing"

	"rlts/internal/geo"
	"rlts/internal/traj"
)

// FuzzSegmentError holds the measures to a verbatim copy of their
// per-point composition as it stood before the prepared anchors (the
// ref* functions below): SegmentError over the fuzzed span, PointError
// at every point of it, OnlineValue at every interior point, and the
// geo parameters and AngularDifference at every point must match bit
// for bit, a NaN matching any NaN. Points come from raw float64 bits, so
// signed zeros, subnormals, ±MaxFloat64, infinities, NaNs and equal or
// decreasing timestamps all reach every fallback.
func FuzzSegmentError(f *testing.F) {
	pts := func(vs ...float64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	max := math.MaxFloat64
	f.Add(pts(0, 0, 0, 1, 2, 1, 3, 1, 2, 4, 4, 3), uint8(0), uint8(3))
	f.Add(pts(math.Copysign(0, -1), 0, 5, 5e-324, -5e-324, 5, 1, 1, 4), uint8(0), uint8(2))
	f.Add(pts(-max, max, 0, max, -max, 1, 0, 0, 2, max, max, 3), uint8(0), uint8(3))
	f.Add(pts(1, 2, -max, 3, 4, 0, 5, 6, max, 7, 8, max), uint8(0), uint8(3))
	f.Add(pts(0, 0, 3, 1, 1, 2, 2, 2, 1), uint8(0), uint8(2))
	f.Add(pts(0, 0, 0, math.Inf(1), 1, 1, math.NaN(), 2, 2, 3, 3, 3), uint8(1), uint8(3))
	f.Add(pts(0, -1, 0, -1, math.Copysign(0, -1), 1, 1, 1, 2), uint8(0), uint8(2))
	// The SED span kernel's skip rule: exact ties, maxima one ulp apart
	// first, in the middle and last, and square orders that rounding
	// inverts against the distances'.
	up := math.Nextafter(3, 4)
	f.Add(pts(0, 0, 0, 1, 3, 1, 2, -3, 2, 3, 3, 3, 4, 0, 4), uint8(0), uint8(4))
	f.Add(pts(0, 0, 0, 1, up, 1, 2, 3, 2, 3, -3, 3, 4, 0, 4), uint8(0), uint8(4))
	f.Add(pts(0, 0, 0, 1, 3, 1, 2, up, 2, 3, -3, 3, 4, 0, 4), uint8(0), uint8(4))
	f.Add(pts(0, 0, 0, 1, 3, 1, 2, -3, 2, 3, up, 3, 4, 0, 4), uint8(0), uint8(4))
	f.Add(pts(0, 0, 0, -1.9596325936460004, -0.7415868652698527, 1, -0.7537513570892358, -1.313860582954566, 2, 4, 0, 4), uint8(0), uint8(3))
	f.Add(pts(0, 0, 0, -1.589644531046908, -0.737484499169187, 1, 1.5202783162575417, 2.649530013010475, 2, 4, 0, 4), uint8(0), uint8(3))
	f.Add(pts(0, 0, 0, 8.491961483489413e-161, 8.848493427659956e-161, 1, 1.2184815107229437e-160, 1.3926688691294952e-161, 2, 0, 0, 4), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi uint8) {
		n := len(data) / 24
		if n > 16 {
			n = 16
		}
		if n < 2 {
			return
		}
		tr := make(traj.Trajectory, n)
		for i := range tr {
			w := data[24*i:]
			tr[i] = geo.Pt(
				math.Float64frombits(binary.LittleEndian.Uint64(w)),
				math.Float64frombits(binary.LittleEndian.Uint64(w[8:])),
				math.Float64frombits(binary.LittleEndian.Uint64(w[16:])))
		}
		a, b := int(lo)%n, int(hi)%n
		if a > b {
			a, b = b, a
		}
		if a == b {
			return
		}
		same := func(what string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s = %v (%#x), reference %v (%#x) on %v", what, got, math.Float64bits(got), want, math.Float64bits(want), tr)
			}
		}
		for _, m := range Measures {
			same(m.String()+" SegmentError", SegmentError(m, tr, a, b), refSegmentError(m, tr, a, b))
			for i := a; i <= b; i++ {
				same(m.String()+" PointError", PointError(m, tr, a, i, b), refPointError(m, tr, a, i, b))
			}
			for i := 1; i < n-1; i++ {
				same(m.String()+" OnlineValue", OnlineValue(m, tr[i-1], tr[i], tr[i+1]), refOnlineValue(m, tr[i-1], tr[i], tr[i+1]))
			}
		}
		s := tr.Segment(a, b)
		for _, p := range tr {
			same("TimeParam", s.TimeParam(p.T), refTimeParam(s, p.T))
			same("ClosestParam", s.ClosestParam(p), refClosestParam(s, p))
			same("AngularDifference", geo.AngularDifference(p.X, p.Y), refAngularDifference(p.X, p.Y))
		}
	})
}

// The reference: a verbatim copy of the per-point measure composition
// the prepared anchors replaced. Each call rebuilds the anchor from the
// segment, interpolates the timestamp it never reads, clamps through
// math.Min and math.Max, and folds every angle with math.Mod.

func refLerp(p, q geo.Point, u float64) geo.Point {
	return geo.Point{
		X: refLerp1(p.X, q.X, u),
		Y: refLerp1(p.Y, q.Y, u),
		T: refLerp1(p.T, q.T, u),
	}
}

func refLerp1(a, b, u float64) float64 {
	v := a + u*(b-a)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return (1-u)*a + u*b
	}
	return v
}

func refClamp01(u float64) float64 {
	if math.IsNaN(u) {
		return 0
	}
	return math.Max(0, math.Min(1, u))
}

func refTimeParam(s geo.Segment, t float64) float64 {
	dt := s.B.T - s.A.T
	if dt <= 0 {
		return 0
	}
	if math.IsInf(dt, 0) {
		return refClamp01((t/2 - s.A.T/2) / (s.B.T/2 - s.A.T/2))
	}
	u := (t - s.A.T) / dt
	return refClamp01(u)
}

func refClosestParam(s geo.Segment, p geo.Point) float64 {
	dx, dy := s.B.X-s.A.X, s.B.Y-s.A.Y
	den := dx*dx + dy*dy
	if den == 0 {
		return 0
	}
	if math.IsInf(den, 0) {
		return refClosestParamWide(s, p)
	}
	u := ((p.X-s.A.X)*dx + (p.Y-s.A.Y)*dy) / den
	return refClamp01(u)
}

func refClosestParamWide(s geo.Segment, p geo.Point) float64 {
	hx, hy := s.B.X/2-s.A.X/2, s.B.Y/2-s.A.Y/2
	m := math.Max(math.Abs(hx), math.Abs(hy))
	if m == 0 {
		return 0
	}
	nx, ny := hx/m, hy/m
	vx, vy := p.X/2-s.A.X/2, p.Y/2-s.A.Y/2
	u := (vx*nx + vy*ny) / (nx*nx + ny*ny) / m
	return refClamp01(u)
}

func refDist(p, q geo.Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

func refSpeed(s geo.Segment) float64 {
	dt := s.B.T - s.A.T
	if dt <= 0 {
		return 0
	}
	v := refDist(s.A, s.B) / dt
	if math.IsNaN(v) || math.IsInf(dt, 0) {
		hl := math.Hypot(s.B.X/2-s.A.X/2, s.B.Y/2-s.A.Y/2)
		hdt := s.B.T/2 - s.A.T/2
		if hdt <= 0 {
			return 0
		}
		return hl / hdt
	}
	return v
}

func refDirection(s geo.Segment) float64 {
	dx, dy := s.B.X-s.A.X, s.B.Y-s.A.Y
	if dx == 0 && dy == 0 {
		return 0
	}
	return math.Atan2(dy, dx)
}

func refIsDegenerate(s geo.Segment) bool {
	return s.A.X == s.B.X && s.A.Y == s.B.Y
}

func refAngularDifference(a, b float64) float64 {
	d := math.Abs(a - b)
	d = math.Mod(d, 2*math.Pi)
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

func refSED(s geo.Segment, p geo.Point) float64 {
	return refDist(p, refLerp(s.A, s.B, refTimeParam(s, p.T)))
}

func refPED(s geo.Segment, p geo.Point) float64 {
	return refDist(p, refLerp(s.A, s.B, refClosestParam(s, p)))
}

func refDAD(s, m geo.Segment) float64 {
	if refIsDegenerate(s) || refIsDegenerate(m) {
		return 0
	}
	return refAngularDifference(refDirection(s), refDirection(m))
}

func refSAD(s, m geo.Segment) float64 {
	a, b := refSpeed(s), refSpeed(m)
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return 0
	}
	return math.Abs(a - b)
}

func refPointError(m Measure, t traj.Trajectory, a, i, b int) float64 {
	anchor := t.Segment(a, b)
	switch m {
	case SED:
		return refSED(anchor, t[i])
	case PED:
		return refPED(anchor, t[i])
	case DAD:
		return refDAD(anchor, refMotionAt(t, i, b))
	default:
		return refSAD(anchor, refMotionAt(t, i, b))
	}
}

func refMotionAt(t traj.Trajectory, i, b int) geo.Segment {
	if i < b {
		return t.Segment(i, i+1)
	}
	return t.Segment(i-1, i)
}

func refSegmentError(m Measure, t traj.Trajectory, a, b int) float64 {
	if b <= a+1 {
		return 0
	}
	anchor := t.Segment(a, b)
	var worst float64
	switch m {
	case SED:
		for i := a + 1; i < b; i++ {
			if d := refSED(anchor, t[i]); d > worst {
				worst = d
			}
		}
	case PED:
		for i := a + 1; i < b; i++ {
			if d := refPED(anchor, t[i]); d > worst {
				worst = d
			}
		}
	case DAD:
		for i := a; i < b; i++ {
			if d := refDAD(anchor, t.Segment(i, i+1)); d > worst {
				worst = d
			}
		}
	case SAD:
		for i := a; i < b; i++ {
			if d := refSAD(anchor, t.Segment(i, i+1)); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func refOnlineValue(m Measure, prev, cur, next geo.Point) float64 {
	switch m {
	case SED:
		return refSED(geo.Seg(prev, next), cur)
	case PED:
		return refPED(geo.Seg(prev, next), cur)
	case DAD:
		return refDAD(geo.Seg(prev, cur), geo.Seg(cur, next))
	default:
		return refSAD(geo.Seg(prev, cur), geo.Seg(cur, next))
	}
}
