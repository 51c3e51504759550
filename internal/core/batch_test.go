package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"rlts/internal/errm"
	"rlts/internal/rl"
	"rlts/internal/traj"
)

// batchPolicy builds an untrained (random-weight) policy for opts —
// untrained weights exercise the equality proof just as well as trained
// ones, since both paths share the same network.
func batchPolicy(t *testing.T, opts Options, seed int64) *rl.Policy {
	t.Helper()
	p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 20, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// batchItems builds b trajectories of staggered lengths including, when
// b is large enough, a degenerate one that fits the budget whole.
func batchItems(b, w int) []BatchItem {
	items := make([]BatchItem, b)
	for i := range items {
		n := 24 + 11*i%97 + i
		if b >= 4 && i == 2 {
			n = w // fits the budget: done at Reset
		}
		items[i] = BatchItem{T: testTraj(int64(300+i), n), W: w}
	}
	return items
}

// TestBatchEngineMatchesSequential is the width sweep required by the
// batching work: at B = 1, 2, 7 and 64, in both argmax and sampled
// modes, across all three variants, BatchEngine must produce exactly
// the kept indices of B independent core.Simplify calls (sampled mode
// feeds both paths identically-seeded RNG streams).
func TestBatchEngineMatchesSequential(t *testing.T) {
	configs := []Options{
		{Measure: errm.SED, Variant: Online, K: 3},
		{Measure: errm.PED, Variant: Online, K: 3, J: 2},
		{Measure: errm.SAD, Variant: Plus, K: 3, J: 2},
		{Measure: errm.DAD, Variant: PlusPlus, K: 3, J: 2},
	}
	const w = 9
	for _, opts := range configs {
		p := batchPolicy(t, opts, 11)
		for _, sample := range []bool{false, true} {
			eng, err := NewBatchEngine(p, opts, sample)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []int{1, 2, 7, 64} {
				items := batchItems(b, w)
				if sample {
					for i := range items {
						items[i].R = rand.New(rand.NewSource(int64(9000 + i)))
					}
				}
				got := eng.RunCtx(context.Background(), items)
				if len(got) != b {
					t.Fatalf("%s sample=%v b=%d: %d results", opts.Name(), sample, b, len(got))
				}
				for i, res := range got {
					if res.Err != nil {
						t.Fatalf("%s sample=%v b=%d item %d: %v", opts.Name(), sample, b, i, res.Err)
					}
					var r *rand.Rand
					if sample {
						r = rand.New(rand.NewSource(int64(9000 + i)))
					}
					want, err := Simplify(p, items[i].T, w, opts, sample, r)
					if err != nil {
						t.Fatalf("sequential Simplify: %v", err)
					}
					if !equalInts(res.Kept, want) {
						t.Fatalf("%s sample=%v b=%d item %d (len %d): batch kept %v, sequential %v",
							opts.Name(), sample, b, i, len(items[i].T), res.Kept, want)
					}
				}
			}
		}
	}
}

// TestBatchEnginePerItemErrors verifies malformed items fail alone with
// the sequential path's error values while their neighbours succeed.
func TestBatchEnginePerItemErrors(t *testing.T) {
	opts := Options{Measure: errm.SED, Variant: Online, K: 3}
	p := batchPolicy(t, opts, 5)
	eng, err := NewBatchEngine(p, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	good := testTraj(7, 40)
	items := []BatchItem{
		{T: good, W: 8, R: rand.New(rand.NewSource(1))},
		{T: good, W: 1, R: rand.New(rand.NewSource(2))},     // budget too small
		{T: good[:1], W: 8, R: rand.New(rand.NewSource(3))}, // too short
		{T: good, W: 8}, // sampling without RNG
		{T: good, W: 8, R: rand.New(rand.NewSource(4))},
	}
	res := eng.RunCtx(context.Background(), items)
	if res[0].Err != nil || res[4].Err != nil {
		t.Fatalf("good items failed: %v, %v", res[0].Err, res[4].Err)
	}
	if res[1].Err == nil || res[2].Err == nil || res[3].Err == nil {
		t.Fatalf("malformed items succeeded: %+v", res)
	}
	if !errors.Is(res[2].Err, traj.ErrTooShort) {
		t.Fatalf("short trajectory error = %v, want traj.ErrTooShort", res[2].Err)
	}
	want, err := Simplify(p, good, 8, opts, true, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(res[0].Kept, want) {
		t.Fatalf("good item diverged from sequential: %v vs %v", res[0].Kept, want)
	}
}

// TestBatchEngineCtxCancel verifies a canceled context marks every
// unfinished item with the wrapped context error.
func TestBatchEngineCtxCancel(t *testing.T) {
	opts := Options{Measure: errm.SED, Variant: Online, K: 3}
	p := batchPolicy(t, opts, 5)
	eng, err := NewBatchEngine(p, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := eng.RunCtx(ctx, []BatchItem{{T: testTraj(1, 50), W: 8}, {T: testTraj(2, 60), W: 8}})
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("item %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
