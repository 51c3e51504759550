package errm

import (
	"math"
	"testing"
	"testing/quick"

	"rlts/internal/geo"
	"rlts/internal/traj"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// zigzag builds a trajectory that alternates y between 0 and amp.
func zigzag(n int, amp float64) traj.Trajectory {
	t := make(traj.Trajectory, n)
	for i := range t {
		y := 0.0
		if i%2 == 1 {
			y = amp
		}
		t[i] = geo.Pt(float64(i), y, float64(i))
	}
	return t
}

// straight builds a constant-velocity straight-line trajectory.
func straight(n int) traj.Trajectory {
	t := make(traj.Trajectory, n)
	for i := range t {
		t[i] = geo.Pt(float64(i), 0, float64(i))
	}
	return t
}

func TestMeasureString(t *testing.T) {
	want := map[Measure]string{SED: "SED", PED: "PED", DAD: "DAD", SAD: "SAD"}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("String(%d) = %q, want %q", int(m), m.String(), s)
		}
		if !m.Valid() {
			t.Errorf("%v not valid", m)
		}
	}
	if Measure(99).Valid() {
		t.Error("Measure(99) reported valid")
	}
}

func TestParse(t *testing.T) {
	for _, m := range Measures {
		got, err := Parse(m.String())
		if err != nil || got != m {
			t.Errorf("Parse(%q) = %v, %v", m.String(), got, err)
		}
		got, err = Parse("s" + m.String()[1:]) // lower first char variant
		_ = got
		_ = err
	}
	if m, err := Parse("sed"); err != nil || m != SED {
		t.Errorf("Parse lowercase failed: %v, %v", m, err)
	}
	if _, err := Parse("nope"); err == nil {
		t.Error("Parse accepted garbage")
	}
}

func TestPointErrorSED(t *testing.T) {
	// Points at x = 0..4, all on x-axis, except p2 at y=3.
	tr := straight(5)
	tr[2].Y = 3
	// Anchor 0->4; at t=2 the synced point is (2,0); SED = 3.
	if got := PointError(SED, tr, 0, 2, 4); !almost(got, 3) {
		t.Errorf("SED = %v, want 3", got)
	}
}

func TestPointErrorPED(t *testing.T) {
	tr := straight(5)
	tr[2] = geo.Pt(2, 4, 2)
	if got := PointError(PED, tr, 0, 2, 4); !almost(got, 4) {
		t.Errorf("PED = %v, want 4", got)
	}
}

func TestPointErrorDAD(t *testing.T) {
	// Motion turns 90 degrees at p2: east then north.
	tr := traj.Trajectory{
		geo.Pt(0, 0, 0), geo.Pt(1, 0, 1), geo.Pt(2, 0, 2),
		geo.Pt(2, 1, 3), geo.Pt(2, 2, 4),
	}
	// Anchor 0->2 is due east; motion at p1 is east: DAD 0.
	if got := PointError(DAD, tr, 0, 1, 2); !almost(got, 0) {
		t.Errorf("DAD east/east = %v, want 0", got)
	}
	// Anchor 0->4 is diagonal (45 deg); motion at p2 is north (90 deg).
	want := math.Pi/2 - math.Atan2(2, 2)
	if got := PointError(DAD, tr, 0, 2, 4); !almost(got, want) {
		t.Errorf("DAD = %v, want %v", got, want)
	}
	// Last point of span uses the incoming motion segment.
	if got := PointError(DAD, tr, 0, 4, 4); got < 0 {
		t.Errorf("DAD at terminal = %v, want >= 0", got)
	}
}

func TestPointErrorSAD(t *testing.T) {
	// Constant location spacing 1 but time gap doubles after p2.
	tr := traj.Trajectory{
		geo.Pt(0, 0, 0), geo.Pt(1, 0, 1), geo.Pt(2, 0, 2),
		geo.Pt(3, 0, 4), geo.Pt(4, 0, 6),
	}
	// Anchor 0->4: length 4 over 6s = 2/3. Motion at p3 is 1 per 2s = 0.5.
	if got := PointError(SAD, tr, 0, 3, 4); !almost(got, 4.0/6-0.5) {
		t.Errorf("SAD = %v, want %v", got, 4.0/6-0.5)
	}
}

func TestSegmentErrorAdjacentZero(t *testing.T) {
	tr := zigzag(6, 5)
	for _, m := range Measures {
		if got := SegmentError(m, tr, 2, 3); got != 0 {
			t.Errorf("%v adjacent segment error = %v, want 0", m, got)
		}
	}
}

func TestSegmentErrorStraightLineZero(t *testing.T) {
	tr := straight(10)
	for _, m := range Measures {
		if got := SegmentError(m, tr, 0, 9); !almost(got, 0) {
			t.Errorf("%v straight-line error = %v, want 0", m, got)
		}
	}
}

func TestSegmentErrorZigzag(t *testing.T) {
	tr := zigzag(5, 4)
	// Anchor 0->4 lies on the x axis; odd points are at y=4.
	if got := SegmentError(SED, tr, 0, 4); !almost(got, 4) {
		t.Errorf("SED zigzag = %v, want 4", got)
	}
	if got := SegmentError(PED, tr, 0, 4); !almost(got, 4) {
		t.Errorf("PED zigzag = %v, want 4", got)
	}
	if got := SegmentError(DAD, tr, 0, 4); got <= 0 {
		t.Errorf("DAD zigzag = %v, want > 0", got)
	}
}

// TestSpanScanAllocatesNothing: prepared anchors are stack values, so
// no granularity allocates.
func TestSpanScanAllocatesNothing(t *testing.T) {
	tr := zigzag(40, 3)
	kept := []int{0, 7, 20, 39}
	for _, m := range Measures {
		allocs := testing.AllocsPerRun(100, func() {
			sinkF = SegmentError(m, tr, 2, 30)
			sinkF = PointError(m, tr, 2, 17, 30)
			sinkF = OnlineValue(m, tr[4], tr[5], tr[6])
			sinkF = MeanError(m, tr, kept)
			an := Prepare(m, tr, 2, 30)
			sinkF = an.PointError(30)
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocations per run, want 0", m, allocs)
		}
	}
}

func TestSegmentErrorMonotoneUnderContainmentSED(t *testing.T) {
	// Widening the span can only add candidate points, but the anchor also
	// changes, so instead verify the max-definition: error over [a,b]
	// >= error contribution of any single interior point.
	tr := zigzag(9, 3)
	e := SegmentError(SED, tr, 0, 8)
	for i := 1; i < 8; i++ {
		if pe := PointError(SED, tr, 0, i, 8); pe > e+1e-12 {
			t.Errorf("point %d error %v exceeds segment error %v", i, pe, e)
		}
	}
}

func TestOnlineValue(t *testing.T) {
	prev, cur, next := geo.Pt(0, 0, 0), geo.Pt(1, 2, 1), geo.Pt(2, 0, 2)
	// SED: synced position at t=1 on prev->next is (1,0); distance 2.
	if got := OnlineValue(SED, prev, cur, next); !almost(got, 2) {
		t.Errorf("OnlineValue SED = %v, want 2", got)
	}
	if got := OnlineValue(PED, prev, cur, next); !almost(got, 2) {
		t.Errorf("OnlineValue PED = %v, want 2", got)
	}
	// DAD: angle between prev->cur and cur->next.
	want := geo.DirectionDistance(geo.Seg(prev, cur), geo.Seg(cur, next))
	if got := OnlineValue(DAD, prev, cur, next); !almost(got, want) {
		t.Errorf("OnlineValue DAD = %v, want %v", got, want)
	}
	// SAD: both halves have equal speed sqrt(5); value 0.
	if got := OnlineValue(SAD, prev, cur, next); !almost(got, 0) {
		t.Errorf("OnlineValue SAD = %v, want 0", got)
	}
}

func TestErrorEndToEnd(t *testing.T) {
	tr := zigzag(7, 2)
	kept := []int{0, 3, 6}
	e := Error(SED, tr, kept)
	if e <= 0 {
		t.Fatalf("Error = %v, want > 0", e)
	}
	// Keeping everything gives zero error.
	all := make([]int, len(tr))
	for i := range all {
		all[i] = i
	}
	if got := Error(SED, tr, all); got != 0 {
		t.Errorf("identity simplification error = %v, want 0", got)
	}
}

func TestErrorPanicsOnBadKept(t *testing.T) {
	tr := straight(5)
	bad := [][]int{
		{0},          // too few
		{1, 4},       // missing head
		{0, 3},       // missing tail
		{0, 2, 2, 4}, // not increasing
	}
	for _, kept := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("kept %v did not panic", kept)
				}
			}()
			Error(SED, tr, kept)
		}()
	}
}

func TestMeanError(t *testing.T) {
	tr := zigzag(5, 2)
	kept := []int{0, 4}
	mean := MeanError(SED, tr, kept)
	max := Error(SED, tr, kept)
	if mean <= 0 || mean > max {
		t.Errorf("mean %v should be in (0, max %v]", mean, max)
	}
	all := []int{0, 1, 2, 3, 4}
	if MeanError(SED, tr, all) != 0 {
		t.Error("identity mean error should be 0")
	}
}

func TestErrorOfTrajectoryAndKeptIndices(t *testing.T) {
	tr := zigzag(6, 1)
	s := tr.Pick([]int{0, 2, 5})
	got, err := ErrorOfTrajectory(PED, tr, s)
	if err != nil {
		t.Fatal(err)
	}
	want := Error(PED, tr, []int{0, 2, 5})
	if !almost(got, want) {
		t.Errorf("ErrorOfTrajectory = %v, want %v", got, want)
	}
	// A foreign point must be rejected.
	bad := traj.Trajectory{tr[0], geo.Pt(42, 42, 2.5), tr[5]}
	if _, err := ErrorOfTrajectory(PED, tr, bad); err == nil {
		t.Error("foreign point accepted")
	}
	// Missing endpoint rejected.
	if _, err := ErrorOfTrajectory(PED, tr, tr[:4]); err == nil {
		t.Error("missing tail accepted")
	}
}

func TestErrorNonNegativeProperty(t *testing.T) {
	f := func(ys []int8, split uint8) bool {
		if len(ys) < 3 {
			return true
		}
		tr := make(traj.Trajectory, len(ys))
		for i, y := range ys {
			tr[i] = geo.Pt(float64(i), float64(y), float64(i))
		}
		mid := 1 + int(split)%(len(ys)-2)
		kept := []int{0, mid, len(ys) - 1}
		for _, m := range Measures {
			if Error(m, tr, kept) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentErrorDominatesPointErrorsProperty(t *testing.T) {
	// Definition consistency: for every measure, the segment error equals
	// the max of the per-point (or per-motion-segment) errors it is
	// defined over — so no point error may exceed it.
	f := func(ys []int8) bool {
		if len(ys) < 3 {
			return true
		}
		tr := make(traj.Trajectory, len(ys))
		for i, y := range ys {
			tr[i] = geo.Pt(float64(i), float64(y)/8, float64(i))
		}
		n := len(tr) - 1
		for _, m := range []Measure{SED, PED} {
			se := SegmentError(m, tr, 0, n)
			for i := 1; i < n; i++ {
				if PointError(m, tr, 0, i, n) > se+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
