package geo

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(1, 2, 0), Pt(1, 2, 5), 0},
		{"unit x", Pt(0, 0, 0), Pt(1, 0, 0), 1},
		{"unit y", Pt(0, 0, 0), Pt(0, 1, 0), 1},
		{"3-4-5", Pt(0, 0, 0), Pt(3, 4, 0), 5},
		{"negative coords", Pt(-1, -1, 0), Pt(2, 3, 0), 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Dist(tc.p, tc.q); !almost(got, tc.want) {
				t.Errorf("Dist(%v, %v) = %v, want %v", tc.p, tc.q, got, tc.want)
			}
		})
	}
}

func TestDistSymmetricProperty(t *testing.T) {
	f := func(ax, ay, bx, by int32) bool {
		p := Pt(float64(ax), float64(ay), 0)
		q := Pt(float64(bx), float64(by), 0)
		return Dist(p, q) == Dist(q, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a, b, c := Pt(float64(ax), float64(ay), 0), Pt(float64(bx), float64(by), 0), Pt(float64(cx), float64(cy), 0)
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	p, q := Pt(0, 0, 0), Pt(10, 20, 100)
	if got := Lerp(p, q, 0); !got.Equal(p) {
		t.Errorf("Lerp u=0 = %v, want %v", got, p)
	}
	if got := Lerp(p, q, 1); !got.Equal(q) {
		t.Errorf("Lerp u=1 = %v, want %v", got, q)
	}
	mid := Lerp(p, q, 0.5)
	if !almost(mid.X, 5) || !almost(mid.Y, 10) || !almost(mid.T, 50) {
		t.Errorf("Lerp u=0.5 = %v, want (5,10)@50", mid)
	}
}

func TestSegmentLengthSpeedDirection(t *testing.T) {
	s := Seg(Pt(0, 0, 0), Pt(3, 4, 10))
	if !almost(s.Length(), 5) {
		t.Errorf("Length = %v, want 5", s.Length())
	}
	if !almost(s.Duration(), 10) {
		t.Errorf("Duration = %v, want 10", s.Duration())
	}
	if !almost(s.Speed(), 0.5) {
		t.Errorf("Speed = %v, want 0.5", s.Speed())
	}
	if !almost(s.Direction(), math.Atan2(4, 3)) {
		t.Errorf("Direction = %v, want %v", s.Direction(), math.Atan2(4, 3))
	}
}

func TestDegenerateSegment(t *testing.T) {
	s := Seg(Pt(1, 1, 0), Pt(1, 1, 0))
	if !s.IsDegenerate() {
		t.Fatal("expected degenerate")
	}
	if s.Speed() != 0 {
		t.Errorf("degenerate Speed = %v, want 0", s.Speed())
	}
	if s.Direction() != 0 {
		t.Errorf("degenerate Direction = %v, want 0", s.Direction())
	}
	// Zero-duration but nonzero length: speed must not be Inf.
	s2 := Seg(Pt(0, 0, 5), Pt(3, 0, 5))
	if v := s2.Speed(); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("zero-duration Speed = %v, want finite", v)
	}
}

func TestClosestParam(t *testing.T) {
	s := Seg(Pt(0, 0, 0), Pt(10, 0, 10))
	tests := []struct {
		p    Point
		want float64
	}{
		{Pt(5, 3, 0), 0.5},
		{Pt(-5, 0, 0), 0}, // clamped before A
		{Pt(15, 0, 0), 1}, // clamped after B
		{Pt(2, -7, 0), 0.2},
	}
	for _, tc := range tests {
		if got := s.ClosestParam(tc.p); !almost(got, tc.want) {
			t.Errorf("ClosestParam(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestPerpendicularDistance(t *testing.T) {
	s := Seg(Pt(0, 0, 0), Pt(10, 0, 10))
	tests := []struct {
		name string
		p    Point
		want float64
	}{
		{"above middle", Pt(5, 3, 5), 3},
		{"on segment", Pt(7, 0, 2), 0},
		{"beyond end", Pt(13, 4, 0), 5},
		{"before start", Pt(-3, -4, 0), 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := PerpendicularDistance(s, tc.p); !almost(got, tc.want) {
				t.Errorf("PED = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSynchronizedDistance(t *testing.T) {
	// Object interpreted to move 0->10 on x over t in [0,10].
	s := Seg(Pt(0, 0, 0), Pt(10, 0, 10))
	// At t=5, synced position is (5,0). Point at (5,4,5) has SED 4.
	if got := SynchronizedDistance(s, Pt(5, 4, 5)); !almost(got, 4) {
		t.Errorf("SED = %v, want 4", got)
	}
	// At t=2, synced position is (2,0).
	if got := SynchronizedDistance(s, Pt(6, 0, 2)); !almost(got, 4) {
		t.Errorf("SED = %v, want 4", got)
	}
	// Timestamp outside the span is clamped to the nearer endpoint.
	if got := SynchronizedDistance(s, Pt(10, 0, 99)); !almost(got, 0) {
		t.Errorf("SED clamped = %v, want 0", got)
	}
}

func TestSEDGreaterEqualPEDProperty(t *testing.T) {
	// The synchronized point is *a* point on the segment, so SED is always
	// >= the distance to the *closest* point (PED).
	f := func(ax, ay, bx, by, px, py int16, tu uint8) bool {
		s := Seg(Pt(float64(ax), float64(ay), 0), Pt(float64(bx), float64(by), 10))
		p := Pt(float64(px), float64(py), float64(tu)/25.5)
		return SynchronizedDistance(s, p) >= PerpendicularDistance(s, p)-eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngularDifference(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{0, 0, 0},
		{0, math.Pi / 2, math.Pi / 2},
		{-math.Pi / 2, math.Pi / 2, math.Pi},
		{3, -3, 2*math.Pi - 6}, // wraps around
		{math.Pi, -math.Pi, 0},
	}
	for _, tc := range tests {
		if got := AngularDifference(tc.a, tc.b); !almost(got, tc.want) {
			t.Errorf("AngularDifference(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAngularDifferenceRangeProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		// Keep magnitudes sane so Mod stays accurate.
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		d := AngularDifference(a, b)
		return d >= -eps && d <= math.Pi+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDirectionDistance(t *testing.T) {
	east := Seg(Pt(0, 0, 0), Pt(1, 0, 1))
	north := Seg(Pt(0, 0, 0), Pt(0, 1, 1))
	west := Seg(Pt(0, 0, 0), Pt(-1, 0, 1))
	if got := DirectionDistance(east, north); !almost(got, math.Pi/2) {
		t.Errorf("east-north = %v, want pi/2", got)
	}
	if got := DirectionDistance(east, west); !almost(got, math.Pi) {
		t.Errorf("east-west = %v, want pi", got)
	}
	stationary := Seg(Pt(0, 0, 0), Pt(0, 0, 1))
	if got := DirectionDistance(east, stationary); got != 0 {
		t.Errorf("stationary = %v, want 0", got)
	}
}

func TestSpeedDistance(t *testing.T) {
	fast := Seg(Pt(0, 0, 0), Pt(10, 0, 1))  // speed 10
	slow := Seg(Pt(0, 0, 0), Pt(10, 0, 10)) // speed 1
	if got := SpeedDistance(fast, slow); !almost(got, 9) {
		t.Errorf("SpeedDistance = %v, want 9", got)
	}
}

func TestPointIsFinite(t *testing.T) {
	if !Pt(1, 2, 3).IsFinite() {
		t.Error("finite point reported non-finite")
	}
	bad := []Point{
		{X: math.NaN()}, {Y: math.Inf(1)}, {T: math.Inf(-1)},
	}
	for _, p := range bad {
		if p.IsFinite() {
			t.Errorf("%v reported finite", p)
		}
	}
}

func TestSegmentAtClamps(t *testing.T) {
	s := Seg(Pt(0, 0, 10), Pt(10, 0, 20))
	if got := s.At(5); !almost(got.X, 0) {
		t.Errorf("At(before) = %v, want start", got)
	}
	if got := s.At(25); !almost(got.X, 10) {
		t.Errorf("At(after) = %v, want end", got)
	}
	if got := s.At(15); !almost(got.X, 5) {
		t.Errorf("At(mid) = %v, want x=5", got)
	}
}
