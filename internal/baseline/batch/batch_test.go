package batch

import (
	"testing"
	"testing/quick"

	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/geo"
	"rlts/internal/traj"
)

func testTraj(seed int64, n int) traj.Trajectory {
	return gen.New(gen.Geolife(), seed).Trajectory(n)
}

func validSimplification(t *testing.T, tr traj.Trajectory, kept []int, w int, name string) {
	t.Helper()
	if len(kept) > w {
		t.Errorf("%s: kept %d > W %d", name, len(kept), w)
	}
	if kept[0] != 0 || kept[len(kept)-1] != len(tr)-1 {
		t.Errorf("%s: endpoints not kept", name)
	}
	if !tr.Pick(kept).IsSimplificationOf(tr) {
		t.Errorf("%s: not a valid simplification", name)
	}
}

func TestBottomUpAndTopDownValid(t *testing.T) {
	tr := testTraj(1, 150)
	for _, m := range errm.Measures {
		ku, err := BottomUp(tr, 20, m)
		if err != nil {
			t.Fatal(err)
		}
		validSimplification(t, tr, ku, 20, "BottomUp/"+m.String())
		kd, err := TopDown(tr, 20, m)
		if err != nil {
			t.Fatal(err)
		}
		validSimplification(t, tr, kd, 20, "TopDown/"+m.String())
	}
}

func TestBellmanValidAndNoWorse(t *testing.T) {
	tr := testTraj(2, 60)
	const w = 10
	for _, m := range errm.Measures {
		kb, err := Bellman(tr, w, m)
		if err != nil {
			t.Fatal(err)
		}
		validSimplification(t, tr, kb, w, "Bellman/"+m.String())
		optimal := errm.Error(m, tr, kb)
		for name, f := range map[string]func(traj.Trajectory, int, errm.Measure) ([]int, error){
			"BottomUp": BottomUp, "TopDown": TopDown,
		} {
			kh, err := f(tr, w, m)
			if err != nil {
				t.Fatal(err)
			}
			he := errm.Error(m, tr, kh)
			if optimal > he+1e-9 {
				t.Errorf("%v: Bellman error %v exceeds %s error %v — not optimal", m, optimal, name, he)
			}
		}
	}
}

func TestBellmanExactOnKnownInstance(t *testing.T) {
	// A spike trajectory: straight line with one off-line point. Keeping
	// the spike point gives zero error with 3 kept points.
	tr := traj.Trajectory{
		geo.Pt(0, 0, 0), geo.Pt(1, 0, 1), geo.Pt(2, 0, 2),
		geo.Pt(3, 5, 3), // spike
		geo.Pt(4, 10, 4), geo.Pt(5, 15, 5),
	}
	kept, err := Bellman(tr, 3, errm.PED)
	if err != nil {
		t.Fatal(err)
	}
	if e := errm.Error(errm.PED, tr, kept); e > 1e-9 {
		t.Errorf("Bellman error %v on exactly-representable instance, kept %v", e, kept)
	}
}

func TestBottomUpEqualsGreedyMergeSemantics(t *testing.T) {
	// On a straight line every drop has zero cost, so Bottom-Up must reach
	// exactly W points with zero error.
	tr := make(traj.Trajectory, 40)
	for i := range tr {
		tr[i] = geo.Pt(float64(i), 0, float64(i))
	}
	kept, err := BottomUp(tr, 5, errm.SED)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 5 {
		t.Errorf("kept %d, want 5", len(kept))
	}
	if e := errm.Error(errm.SED, tr, kept); e != 0 {
		t.Errorf("error %v, want 0", e)
	}
}

func TestTopDownPicksWorstSpike(t *testing.T) {
	// With budget 3, Top-Down must keep the largest spike.
	tr := traj.Trajectory{
		geo.Pt(0, 0, 0), geo.Pt(1, 1, 1), geo.Pt(2, 0, 2),
		geo.Pt(3, 7, 3), // dominant spike
		geo.Pt(4, 0, 4), geo.Pt(5, 0, 5),
	}
	kept, err := TopDown(tr, 3, errm.PED)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ix := range kept {
		if ix == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("TopDown kept %v, expected the spike at 3", kept)
	}
}

func TestSpanSearchValidAndBounded(t *testing.T) {
	tr := testTraj(3, 200)
	kept, err := SpanSearch(tr, 30)
	if err != nil {
		t.Fatal(err)
	}
	validSimplification(t, tr, kept, 30, "SpanSearch")
	derr := errm.Error(errm.DAD, tr, kept)
	if derr < 0 {
		t.Errorf("negative DAD error %v", derr)
	}
	// Span-Search is a dedicated DAD algorithm: it should be competitive
	// with (not wildly worse than) Bottom-Up under DAD.
	kb, err := BottomUp(tr, 30, errm.DAD)
	if err != nil {
		t.Fatal(err)
	}
	be := errm.Error(errm.DAD, tr, kb)
	if derr > be*3+0.5 {
		t.Errorf("SpanSearch DAD %v much worse than BottomUp %v", derr, be)
	}
}

func TestShortInputsKeptWhole(t *testing.T) {
	tr := testTraj(4, 8)
	for name, f := range map[string]func(traj.Trajectory, int, errm.Measure) ([]int, error){
		"BottomUp": BottomUp, "TopDown": TopDown, "Bellman": Bellman,
	} {
		kept, err := f(tr, 20, errm.SED)
		if err != nil {
			t.Fatal(err)
		}
		if len(kept) != 8 {
			t.Errorf("%s: kept %d, want 8", name, len(kept))
		}
	}
	kept, err := SpanSearch(tr, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 8 {
		t.Errorf("SpanSearch: kept %d, want 8", len(kept))
	}
}

func TestArgumentValidation(t *testing.T) {
	tr := testTraj(5, 40)
	for name, f := range map[string]func(traj.Trajectory, int, errm.Measure) ([]int, error){
		"BottomUp": BottomUp, "TopDown": TopDown, "Bellman": Bellman,
	} {
		if _, err := f(tr, 1, errm.SED); err == nil {
			t.Errorf("%s: W=1 accepted", name)
		}
		if _, err := f(tr[:1], 5, errm.SED); err == nil {
			t.Errorf("%s: single point accepted", name)
		}
		if _, err := f(tr, 5, errm.Measure(42)); err == nil {
			t.Errorf("%s: invalid measure accepted", name)
		}
	}
	if _, err := SpanSearch(tr, 1); err == nil {
		t.Error("SpanSearch: W=1 accepted")
	}
}

func TestBellmanOptimalProperty(t *testing.T) {
	// For random small instances, Bellman's error must lower-bound both
	// heuristics under SED and PED.
	f := func(seed int64, wByte uint8) bool {
		n := 15 + int(wByte%15)
		w := 4 + int(wByte%5)
		tr := testTraj(seed, n)
		for _, m := range []errm.Measure{errm.SED, errm.PED} {
			kb, err := Bellman(tr, w, m)
			if err != nil {
				return false
			}
			be := errm.Error(m, tr, kb)
			ku, err := BottomUp(tr, w, m)
			if err != nil {
				return false
			}
			if be > errm.Error(m, tr, ku)+1e-9 {
				return false
			}
			kd, err := TopDown(tr, w, m)
			if err != nil {
				return false
			}
			if be > errm.Error(m, tr, kd)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBottomUpBudgetExactProperty(t *testing.T) {
	f := func(seed int64, wByte uint8) bool {
		n := 20 + int(wByte%40)
		w := 3 + int(wByte%10)
		tr := testTraj(seed, n)
		kept, err := BottomUp(tr, w, errm.SED)
		if err != nil {
			return false
		}
		return len(kept) == w && tr.Pick(kept).IsSimplificationOf(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
