package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"rlts/internal/buffer"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/geo"
	"rlts/internal/traj"
)

// TestBatchValueSeesDroppedPoints pins the defining difference between
// RLTS (Eq. 1) and RLTS+ (Eq. 12): after points are dropped, the batch
// value of a buffer point accounts for the dropped points in its span
// while the online value does not.
func TestBatchValueSeesDroppedPoints(t *testing.T) {
	// Trajectory: a straight line except p2, which spikes off-line.
	// p1..p5 with a large spike at p2.
	tr := traj.Trajectory{
		geo.Pt(0, 0, 0),
		geo.Pt(1, 0, 1),
		geo.Pt(2, 9, 2), // spike (will be dropped first)
		geo.Pt(3, 0, 3),
		geo.Pt(4, 0, 4),
		geo.Pt(5, 0, 5),
		geo.Pt(6, 0, 6),
	}
	mkEnv := func(v Variant) *scanEnv {
		opts := Options{Measure: errm.PED, Variant: v, K: 5}
		return newScanEnv(tr, 4, opts, false)
	}
	for _, v := range []Variant{Online, Plus} {
		env := mkEnv(v)
		if _, _, done := env.Reset(); done {
			t.Fatal("done at reset")
		}
		// Find and drop the spike (index 2) via whichever candidate slot
		// holds it... dropping by value is policy business; here drive the
		// env directly: cand holds entries sorted by value.
		var spikeSlot = -1
		for i, e := range env.cand {
			if e.Index == 2 {
				spikeSlot = i
			}
		}
		if spikeSlot < 0 {
			t.Fatalf("%v: spike not among candidates", v)
		}
		env.Step(spikeSlot)
		// The buffer now bridges the dropped spike. The *stored* value of
		// the bridging neighbour includes the spike under both variants
		// (the repair rule of Eqs. 5-6 maxes in the just-dropped point),
		// but a *fresh* Eq. 1 value must ignore it while a fresh Eq. 12
		// value keeps it — that is exactly what separates RLTS from RLTS+.
		found := false
		for e := env.buf.Head(); e != nil; e = e.Next() {
			if e.Index == 3 && e.Prev() != nil && e.Next() != nil {
				found = true
				stored := e.Value()
				if stored < 5 {
					t.Errorf("%v: stored repair value of p3 = %v, want >= spike deviation (Eqs. 5-6)", v, stored)
				}
				fresh := env.valueOf(e)
				if v == Plus && fresh < 5 {
					t.Errorf("Plus: fresh Eq.12 value of p3 = %v, want >= spike deviation", fresh)
				}
				if v == Online && fresh > 5 {
					t.Errorf("Online: fresh Eq.1 value of p3 = %v, should ignore the dropped spike", fresh)
				}
			}
		}
		if !found {
			t.Fatalf("%v: p3 not interior", v)
		}
	}
}

// TestSimplifyRandomValidOutput exercises the random-policy ablation path.
func TestSimplifyRandomValidOutput(t *testing.T) {
	tr := testTraj(51, 80)
	r := rand.New(rand.NewSource(2))
	for _, v := range []Variant{Online, Plus, PlusPlus} {
		opts := Options{Measure: errm.SED, Variant: v, K: 3, J: 1}
		kept, err := SimplifyRandom(tr, 12, opts, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(kept) > 12 {
			t.Errorf("%v: kept %d", v, len(kept))
		}
		if !tr.Pick(kept).IsSimplificationOf(tr) {
			t.Errorf("%v: invalid simplification", v)
		}
	}
	if _, err := SimplifyRandom(tr, 1, DefaultOptions(errm.SED, Online), r); err == nil {
		t.Error("W=1 accepted")
	}
}

// TestEq12ValuesMatchRecompute drives newEnv's Reset and Step, the calls
// drive makes, with random legal actions under RLTS+, RLTS-Skip+, RLTS++
// and RLTS-Skip++ and every measure. At every decision it recomputes
// each buffered interior point's Eq. 12 value from scratch, as
// errm.SegmentError over its buffer neighbours, and requires bit
// equality with the value the buffer stores, with the state's k lowest
// values (and their padding and mask bits), and with the skip features:
// for Skip+ the error of the segment a skip of s would create, for
// Skip++ the s-th lowest value.
func TestEq12ValuesMatchRecompute(t *testing.T) {
	const n, w = 400, 40
	profiles := []gen.Config{gen.Geolife(), gen.TDrive(), gen.Truck()}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	decisions := 0
	for _, v := range []Variant{Plus, PlusPlus} {
		for _, j := range []int{0, 2} {
			for _, m := range errm.Measures {
				opts := Options{Measure: m, Variant: v, K: 3, J: j}
				k := opts.K
				for pi, cfg := range profiles {
					seed := int64(1 + pi)
					tr := gen.New(cfg, seed).Trajectory(n)
					env := newEnv(tr, w, opts, false)
					r := rand.New(rand.NewSource(seed))
					state, mask, done := env.Reset()
					var buf *buffer.Buffer
					switch e := env.(type) {
					case *scanEnv:
						buf = e.buf
					case *fullEnv:
						buf = e.buf
					}
					for step := 0; !done; step++ {
						at := fmt.Sprintf("%s seed %d step %d", opts.Name()+"/"+m.String(), seed, step)
						var vals []float64
						for en := buf.Head().Next(); en != buf.Tail(); en = en.Next() {
							want := errm.SegmentError(m, tr, en.Prev().Index, en.Next().Index)
							if !same(en.Value(), want) {
								t.Fatalf("%s: point %d stores %v, recompute %v", at, en.Index, en.Value(), want)
							}
							vals = append(vals, want)
						}
						sort.Float64s(vals)
						var pad float64
						if len(vals) > 0 {
							pad = vals[min(len(vals), max(k, j))-1]
						}
						for a := 0; a < k; a++ {
							want, legal := pad, a < len(vals)
							if legal {
								want = vals[a]
							}
							if !same(state[a], want) || mask[a] != legal {
								t.Fatalf("%s: drop %d state %v mask %v, want %v %v", at, a, state[a], mask[a], want, legal)
							}
						}
						tail := buf.Tail()
						for s := 1; s <= j; s++ {
							var want float64
							var legal bool
							if v == Plus {
								legal = tail.Index+s < n
								switch {
								case legal:
									want = errm.SegmentError(m, tr, tail.Prev().Index, tail.Index+s)
								case s > 1:
									want = state[k+s-2]
								default:
									want = pad
								}
							} else {
								legal = s <= len(vals) && s <= buf.Size()-w
								want = pad
								if s <= len(vals) {
									want = vals[s-1]
								}
							}
							if !same(state[k+s-1], want) || mask[k+s-1] != legal {
								t.Fatalf("%s: skip %d state %v mask %v, want %v %v", at, s, state[k+s-1], mask[k+s-1], want, legal)
							}
						}
						decisions++
						var legal []int
						for a, ok := range mask {
							if ok {
								legal = append(legal, a)
							}
						}
						state, mask, _, done = env.Step(legal[r.Intn(len(legal))])
					}
				}
			}
		}
	}
	if decisions == 0 {
		t.Fatal("no decision checked")
	}
}
