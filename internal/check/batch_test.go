package check

import (
	"context"
	"math/rand"
	"testing"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/rl"
)

// The batch-engine differential: core.BatchEngine against per-trajectory
// core.Simplify over the full adversarial generator set, random policy
// weights, random batch sizes and both inference modes. The engine runs
// each item through Simplify's own decision loop, so its contract is
// bitwise equality at any batch size (DESIGN.md §12); any drift — an
// item run under another item's budget or RNG stream, a stream consumed
// out of order — surfaces here as a kept-index mismatch on geometry
// chosen to make rounding differences visible (extreme magnitudes, ties
// from collinear and stationary families).

func TestBatchEngineDifferential(t *testing.T) {
	variants := []core.Variant{core.Online, core.Plus, core.PlusPlus}
	for _, g := range generators {
		g := g
		t.Run(g.name, func(t *testing.T) {
			rounds := scaled(2)
			for round := 0; round < rounds; round++ {
				r := rand.New(rand.NewSource(int64(15000 + round)))
				for _, m := range errm.Measures {
					for _, v := range variants {
						opts := core.Options{Measure: m, Variant: v, K: 3}
						if v != core.Online {
							opts = core.DefaultOptions(m, v)
						}
						// Fresh random weights each round: differential
						// coverage over policy space, not one fixed net.
						p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 8+r.Intn(16),
							rand.New(rand.NewSource(r.Int63())))
						if err != nil {
							t.Fatal(err)
						}
						sample := r.Intn(2) == 0
						eng, err := core.NewBatchEngine(p, opts, sample)
						if err != nil {
							t.Fatal(err)
						}
						b := 1 + r.Intn(9)
						items := make([]core.BatchItem, b)
						seeds := make([]int64, b)
						for i := range items {
							tr := g.gen(rand.New(rand.NewSource(int64(700+round*100+i))), 12+r.Intn(40))
							w := 4 + r.Intn(8)
							items[i] = core.BatchItem{T: tr, W: w}
							if sample {
								seeds[i] = r.Int63()
								items[i].R = rand.New(rand.NewSource(seeds[i]))
							}
						}
						got := eng.RunCtx(context.Background(), items)
						for i, res := range got {
							if res.Err != nil {
								t.Fatalf("%s %s %s b=%d item %d: %v", g.name, m, v, b, i, res.Err)
							}
							if err := errm.CheckKept(items[i].T, res.Kept); err != nil {
								t.Fatalf("%s %s %s item %d: invalid kept: %v", g.name, m, v, i, err)
							}
							var sr *rand.Rand
							if sample {
								sr = rand.New(rand.NewSource(seeds[i]))
							}
							want, err := core.Simplify(p, items[i].T, items[i].W, opts, sample, sr)
							if err != nil {
								t.Fatalf("sequential: %v", err)
							}
							if !sameInts(res.Kept, want) {
								t.Fatalf("%s %s %s sample=%v b=%d item %d (len %d, w %d): batch %v != sequential %v",
									g.name, m, v, sample, b, i, len(items[i].T), items[i].W, res.Kept, want)
							}
						}
					}
				}
			}
		})
	}
}

func sameInts(a, b []int) bool {
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
