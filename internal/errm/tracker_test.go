package errm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rlts/internal/geo"
	"rlts/internal/traj"
)

func randomTraj(r *rand.Rand, n int) traj.Trajectory {
	t := make(traj.Trajectory, n)
	x, y := 0.0, 0.0
	for i := range t {
		x += r.Float64()*2 - 0.5
		y += r.Float64()*2 - 1
		t[i] = geo.Pt(x, y, float64(i)+r.Float64()*0.5)
	}
	return t
}

func TestTrackerMatchesFullRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		tr := randomTraj(r, 30)
		for _, m := range Measures {
			tk := NewFullTracker(m, tr)
			if tk.Err() != 0 {
				t.Fatalf("%v: full tracker initial error = %v, want 0", m, tk.Err())
			}
			// Drop random interior points down to 5 kept.
			for tk.kept > 5 {
				kept := tk.Kept()
				i := kept[1+r.Intn(len(kept)-2)]
				got := tk.Drop(i)
				want := Error(m, tr, tk.Kept())
				if !almost(got, want) {
					t.Fatalf("%v: tracker error %v, recompute %v after dropping %d", m, got, want, i)
				}
			}
		}
	}
}

func TestTrackerExtendAndDropOnline(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tr := randomTraj(r, 40)
	m := SED
	tk := NewTracker(m, tr)
	if tk.kept != 1 || tk.Tail() != 0 {
		t.Fatal("fresh tracker should keep only index 0")
	}
	// Simulate online processing with skips: extend by 1..3, occasionally drop.
	i := 0
	for i < 39 {
		step := 1 + r.Intn(3)
		if i+step > 39 {
			step = 39 - i
		}
		i += step
		tk.ExtendTo(i)
		if tk.kept > 4 && r.Intn(2) == 0 {
			kept := tk.Kept()
			drop := kept[1+r.Intn(len(kept)-2)]
			tk.Drop(drop)
		}
		// Cross-check against recompute over the scanned prefix.
		kept := tk.Kept()
		want := Error(m, tr[:i+1], kept)
		if !almost(tk.Err(), want) {
			t.Fatalf("at i=%d: tracker %v, recompute %v (kept %v)", i, tk.Err(), want, kept)
		}
	}
}

func TestTrackerDropEndpointPanics(t *testing.T) {
	tr := randomTraj(rand.New(rand.NewSource(1)), 10)
	tk := NewFullTracker(SED, tr)
	for _, i := range []int{0, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Drop(%d) endpoint did not panic", i)
				}
			}()
			tk.Drop(i)
		}()
	}
	tk.Drop(5)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Drop did not panic")
			}
		}()
		tk.Drop(5)
	}()
}

func TestTrackerExtendValidation(t *testing.T) {
	tr := randomTraj(rand.New(rand.NewSource(2)), 10)
	tk := NewTracker(SED, tr)
	tk.ExtendTo(3)
	for _, i := range []int{3, 2, 10, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ExtendTo(%d) did not panic", i)
				}
			}()
			tk.ExtendTo(i)
		}()
	}
}

func TestTrackerNeighbours(t *testing.T) {
	tr := randomTraj(rand.New(rand.NewSource(3)), 8)
	tk := NewFullTracker(PED, tr)
	tk.Drop(3)
	if tk.next[2] != 4 || tk.prev[4] != 2 {
		t.Errorf("chain not bridged: next(2)=%d prev(4)=%d", tk.next[2], tk.prev[4])
	}
	if tk.in[3] {
		t.Error("dropped point still kept")
	}
	if !tk.in[2] || !tk.in[4] {
		t.Error("neighbours lost")
	}
}

func TestLazyMax(t *testing.T) {
	var l lazyMax
	if l.Max() != 0 {
		t.Error("empty Max != 0")
	}
	l.Push(3)
	l.Push(1)
	l.Push(3)
	l.Push(2)
	if l.Max() != 3 || l.Len() != 4 {
		t.Fatalf("Max=%v Len=%d", l.Max(), l.Len())
	}
	l.Remove(3)
	if l.Max() != 3 { // second copy of 3 still live
		t.Errorf("Max after one Remove(3) = %v, want 3", l.Max())
	}
	l.Remove(3)
	if l.Max() != 2 {
		t.Errorf("Max = %v, want 2", l.Max())
	}
	l.Remove(2)
	l.Remove(1)
	if l.Max() != 0 || l.Len() != 0 {
		t.Errorf("emptied: Max=%v Len=%d", l.Max(), l.Len())
	}
}

func TestLazyMaxProperty(t *testing.T) {
	// Against a reference slice implementation.
	f := func(ops []int16) bool {
		var l lazyMax
		var ref []float64
		for _, op := range ops {
			v := float64(op%100) / 4
			if op%3 == 0 && len(ref) > 0 {
				// remove an existing element
				ix := int(uint16(op)) % len(ref)
				l.Remove(ref[ix])
				ref = append(ref[:ix], ref[ix+1:]...)
			} else {
				l.Push(v)
				ref = append(ref, v)
			}
			want := 0.0
			for _, x := range ref {
				if x > want {
					want = x
				}
			}
			if len(ref) > 0 {
				// Max over possibly negative refs: recompute properly.
				want = ref[0]
				for _, x := range ref[1:] {
					if x > want {
						want = x
					}
				}
			}
			if got := l.Max(); (len(ref) == 0 && got != 0) || (len(ref) > 0 && got != want) {
				return false
			}
			if l.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTrackerRandomOpsProperty(t *testing.T) {
	f := func(seed int64, sizeByte uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + int(sizeByte)%30
		tr := randomTraj(r, n)
		m := Measures[int(sizeByte)%len(Measures)]
		tk := NewFullTracker(m, tr)
		for tk.kept > 3 {
			kept := tk.Kept()
			tk.Drop(kept[1+r.Intn(len(kept)-2)])
			if !almost(tk.Err(), Error(m, tr, tk.Kept())) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
