package errm

import (
	"math"
	"math/rand"
	"testing"

	"rlts/internal/geo"
	"rlts/internal/traj"
)

// sedLoop is SED SegmentError as a plain per-point Distance loop, the
// form geo.SEDAnchor.MaxDistance must reproduce bit for bit.
func sedLoop(t traj.Trajectory, a, b int) float64 {
	if b <= a+1 {
		return 0
	}
	an := geo.PrepareSED(t.Segment(a, b))
	var worst float64
	for _, p := range t[a+1 : b] {
		if d := an.Distance(p); d > worst {
			worst = d
		}
	}
	return worst
}

// offsets returns a trajectory over the anchor (0,0,0)-(n+1,0,n+1) whose
// interior point i sits at x = i, y = ys[i-1]. Its timestamp puts the
// synchronized position at (i, 0), so the residual is exactly (0, y).
func offsets(ys ...float64) traj.Trajectory {
	n := len(ys)
	t := make(traj.Trajectory, n+2)
	t[0] = geo.Pt(0, 0, 0)
	for i, y := range ys {
		t[i+1] = geo.Pt(float64(i+1), y, float64(i+1))
	}
	t[n+1] = geo.Pt(float64(n+1), 0, float64(n+1))
	return t
}

// TestSEDSpanKernelEdges holds SED SegmentError, which skips math.Hypot
// for points that cannot be the span's maximum, to the per-point loop bit
// for bit at the edges of that skip rule: exact ties, maxima one ulp
// apart in every position, squares around the 2^-900 floor and near
// overflow, spans of 1, 2 and 300 points, and anchors outside the fast
// loop's guard.
func TestSEDSpanKernelEdges(t *testing.T) {
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	d := 3.0
	floor := math.Ldexp(1, -450) // its square is 2^-900
	big := math.Ldexp(1, 511)    // its square is 2^1022, finite
	max := math.MaxFloat64
	r := rand.New(rand.NewSource(7))
	long := make([]float64, 300)
	for i := range long {
		long[i] = r.NormFloat64() * 50
	}
	inverted := []traj.Trajectory{
		{geo.Pt(0, 0, 0), geo.Pt(-1.9596325936460004, -0.7415868652698527, 1), geo.Pt(-0.7537513570892358, -1.313860582954566, 2), geo.Pt(4, 0, 4)},
		{geo.Pt(0, 0, 0), geo.Pt(-1.589644531046908, -0.737484499169187, 1), geo.Pt(1.5202783162575417, 2.649530013010475, 2), geo.Pt(4, 0, 4)},
		{geo.Pt(0, 0, 0), geo.Pt(8.491961483489413e-161, 8.848493427659956e-161, 1), geo.Pt(1.2184815107229437e-160, 1.3926688691294952e-161, 2), geo.Pt(0, 0, 4)},
	}
	ties := make(traj.Trajectory, 7)
	ties[0], ties[6] = geo.Pt(0, 0, 0), geo.Pt(6, 0, 6)
	for i, r := range [][2]float64{{0, 5}, {3, 4}, {-4, 3}, {0, -5}, {5, 0}} {
		// Residuals of length exactly 5 in five directions.
		ties[i+1] = geo.Pt(float64(i+1)+r[0], r[1], float64(i+1))
	}
	cases := []struct {
		name string
		t    traj.Trajectory
	}{
		{"no points", offsets()},
		{"one point", offsets(d)},
		{"two points", offsets(d, -d)},
		{"300 points", offsets(long...)},
		{"exact ties", offsets(d, d, -d, d, -d)},
		{"ties in five directions", ties},
		{"all zero", offsets(0, 0, 0)},
		{"ulp apart, max first", offsets(up(d), d, 1, d)},
		{"ulp apart, max middle", offsets(1, d, up(d), d, 1)},
		{"ulp apart, max last", offsets(d, 1, d, up(d))},
		{"ulp apart, rising", offsets(d, up(d), up(up(d)))},
		{"margin apart", offsets(d, d*(1+0x1p-41), d*(1-0x1p-41))},
		// Rounding inverts the order of the squares and of the distances:
		// the first point's square is the smaller but its distance the
		// larger, so the displaced candidate needs its own math.Hypot.
		{"inverted rounding, candidate displaced", inverted[0]},
		// The first point's square is the larger but its distance the
		// smaller, so the second, within the margin, needs its math.Hypot.
		{"inverted rounding, candidate kept", inverted[1]},
		// Subnormal squares round too coarsely to rank: the second point's
		// square is the smaller but its distance the larger, which is why
		// a square below the floor never becomes a candidate.
		{"inverted subnormal squares", inverted[2]},
		{"square at the floor", offsets(floor, up(floor), floor/2)},
		{"squares below the floor", offsets(floor/2, up(floor/2), floor/4)},
		{"subnormal residuals", offsets(5e-324, 1e-320, 5e-324)},
		{"below and above the floor", offsets(floor/3, 2*floor, floor/3)},
		{"square near overflow", offsets(big, up(big), big/2)},
		{"square overflows", offsets(big, 2*big, up(2*big), 1e300)},
		{"residual overflows", offsets(1, max, -max, 1)},
		{"huge anchor", traj.Trajectory{geo.Pt(0x1p1001, 0, 0), geo.Pt(0x1p1001, 3, 1), geo.Pt(0x1p1001, 4, 2), geo.Pt(-max, 0, 3)}},
		{"anchor at the guard", traj.Trajectory{geo.Pt(0x1p1000, 0, 0), geo.Pt(0, 3, 1), geo.Pt(1, 4, 2), geo.Pt(0, 0, 3)}},
		{"flat time span", traj.Trajectory{geo.Pt(0, 0, 5), geo.Pt(1, 3, 5), geo.Pt(2, 3, 5), geo.Pt(3, 0, 5)}},
		{"negative time span", traj.Trajectory{geo.Pt(0, 0, 5), geo.Pt(1, 3, 4), geo.Pt(2, up(3), 3), geo.Pt(3, 0, 2)}},
		{"halved time span", traj.Trajectory{geo.Pt(0, 0, -max), geo.Pt(1, 3, 0), geo.Pt(2, up(3), max/2), geo.Pt(3, 0, max)}},
		{"NaN time span", traj.Trajectory{geo.Pt(0, 0, 0), geo.Pt(1, 3, 1), geo.Pt(2, 4, 2), geo.Pt(3, 0, math.NaN())}},
		{"NaN point", offsets(1, math.NaN(), 2)},
		{"NaN and infinite residual", traj.Trajectory{geo.Pt(0, 0, 0), geo.Pt(math.NaN(), math.Inf(1), 1), geo.Pt(2, 3, 2), geo.Pt(3, 0, 3)}},
		{"timestamps outside the span", traj.Trajectory{geo.Pt(0, 0, 0), geo.Pt(1, 3, -9), geo.Pt(2, 4, math.NaN()), geo.Pt(3, 5, math.Inf(1)), geo.Pt(4, 0, 4)}},
	}
	check := func(name string, tr traj.Trajectory, a, b int) {
		t.Helper()
		got, want := SegmentError(SED, tr, a, b), sedLoop(tr, a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s [%d,%d]: SegmentError = %v (%#x), per-point loop %v (%#x)",
				name, a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, c := range cases {
		n := len(c.t)
		check(c.name, c.t, 0, n-1)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n && b <= a+8; b++ {
				check(c.name, c.t, a, b)
			}
		}
	}
}
