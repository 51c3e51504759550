package check

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/nn"
	"rlts/internal/rl"
)

// The FastMath tolerance pillar: the fused bounded forward
// (nn.Network.ForwardBounded) against the exact path, measured on the
// real decision states a greedy simplification visits — not synthetic
// vectors — across the full adversarial generator set, all measures and
// variants, and fresh random policy weights each round.
//
// rl.Policy.Act decides from the fused forward only when its per-logit
// bounds prove the exact decision (DESIGN.md §13), so decisions are
// exact by construction. The pillar holds the fused forward itself to
// its published constants (nn/fastmath.go) and the certified decisions
// to the exact ones:
//
//  1. every probability of the masked softmax of the fused logits is
//     within nn.FastProbsMaxAbsError absolute and nn.FastProbsMaxRelError
//     relative error of the exact Probs value (relative checked above
//     nn.FastProbsRelFloor, where ULP distance is meaningful);
//  2. the argmax of the fused probabilities equals the exact argmax on
//     every decision state, and so does every traced (certified) action;
//  3. end to end, greedy Simplify keeps the same indices as the traced
//     run on every adversarial family.

func TestFastMathTolerance(t *testing.T) {
	variants := []core.Variant{core.Online, core.Plus, core.PlusPlus}
	for _, g := range generators {
		g := g
		t.Run(g.name, func(t *testing.T) {
			rounds := scaled(2)
			var maxAbs, maxRel float64
			rows, fallbacks := 0, 0
			for round := 0; round < rounds; round++ {
				r := rand.New(rand.NewSource(int64(31000 + round)))
				for _, m := range errm.Measures {
					for _, v := range variants {
						opts := core.Options{Measure: m, Variant: v, K: 3}
						if v != core.Online {
							opts = core.DefaultOptions(m, v)
						}
						p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 8+r.Intn(16),
							rand.New(rand.NewSource(r.Int63())))
						if err != nil {
							t.Fatal(err)
						}
						tr := g.gen(rand.New(rand.NewSource(int64(900+round*100))), 12+r.Intn(40))
						w := 4 + r.Intn(8)

						p.TakeFallbacks()
						trace, err := core.TraceGreedy(p, tr, w, opts)
						if err != nil {
							t.Fatalf("%s %s %s: trace: %v", g.name, m, v, err)
						}
						fallbacks += p.TakeFallbacks()
						if len(trace.Actions) == 0 {
							continue // trajectory fit the budget, no decisions
						}

						b := len(trace.Actions)
						in := trace.StateSize
						for row := 0; row < b; row++ {
							state := trace.States[row*in : (row+1)*in]
							er := p.Probs(state, trace.Masks[row], false)
							logits, _ := p.Net.ForwardBounded(state)
							fr := nn.MaskedSoftmaxInto(make([]float64, len(logits)), logits, trace.Masks[row])
							for i := range er {
								abs := math.Abs(fr[i] - er[i])
								if abs > maxAbs {
									maxAbs = abs
								}
								if abs > nn.FastProbsMaxAbsError {
									t.Fatalf("%s %s %s row %d action %d: |fast-exact| = %g > %g (exact %g, fast %g)",
										g.name, m, v, row, i, abs, nn.FastProbsMaxAbsError, er[i], fr[i])
								}
								if math.Abs(er[i]) > nn.FastProbsRelFloor {
									rel := abs / math.Abs(er[i])
									if rel > maxRel {
										maxRel = rel
									}
									if rel > nn.FastProbsMaxRelError {
										t.Fatalf("%s %s %s row %d action %d: relative error %g > %g (exact %g, fast %g)",
											g.name, m, v, row, i, rel, nn.FastProbsMaxRelError, er[i], fr[i])
									}
								}
							}
							// The decision oracle: same argmax on every
							// decision state of every adversarial family.
							ea := rl.GreedyAction(er)
							fa := rl.GreedyAction(fr)
							if ea != fa {
								t.Fatalf("%s %s %s row %d: argmax flipped, exact %d fast %d (exact row %v, fast row %v)",
									g.name, m, v, row, ea, fa, er, fr)
							}
							if ea != trace.Actions[row] {
								t.Fatalf("%s %s %s row %d: replayed argmax %d != traced action %d",
									g.name, m, v, row, ea, trace.Actions[row])
							}
						}
						rows += b

						// End-to-end oracle: a greedy run keeps the same
						// indices as the traced one.
						kept, err := core.Simplify(p, tr, w, opts, false, nil)
						if err != nil {
							t.Fatalf("%s %s %s: fast simplify: %v", g.name, m, v, err)
						}
						if !sameInts(kept, trace.Kept) {
							t.Fatalf("%s %s %s (len %d, w %d): fast kept %v != exact kept %v",
								g.name, m, v, len(tr), w, kept, trace.Kept)
						}
					}
				}
			}
			t.Logf("%s: %d decision rows, %d exact fallbacks, max abs err %.3g (bound %.1g), max rel err %.3g (bound %.1g)",
				g.name, rows, fallbacks, maxAbs, nn.FastProbsMaxAbsError, maxRel, nn.FastProbsMaxRelError)
		})
	}
}

// TestFastForwardIsolation pins the fused forward's isolation: it is a
// different arithmetic from the exact one (its probabilities differ in
// some bit), running it leaves the exact Probs untouched, a clone folds
// the same plan bit for bit, and after each write to the weights or
// statistics — SetParams, SyncFrom, UpdateStats or a training Forward —
// the refolded forward equals a fresh clone's bit for bit.
func TestFastForwardIsolation(t *testing.T) {
	opts := core.DefaultOptions(errm.SED, core.Plus)
	p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 12,
		rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	state := make([]float64, opts.StateSize())
	for i := range state {
		state[i] = r.NormFloat64()
	}
	fastProbs := func(p *rl.Policy) []float64 {
		logits, _ := p.Net.ForwardBounded(state)
		return nn.SoftmaxInto(make([]float64, len(logits)), logits)
	}
	exact := append([]float64(nil), p.Probs(state, nil, false)...)
	fast := fastProbs(p)
	if slices.Equal(fast, exact) {
		t.Fatalf("fused probs %v equal the exact forward's bit for bit, want the fused arithmetic", fast)
	}
	if got := p.Probs(state, nil, false); !slices.Equal(got, exact) {
		t.Fatalf("exact probs after the fused forward = %v, want %v", got, exact)
	}
	if got := fastProbs(p.Clone()); !slices.Equal(got, fast) {
		t.Fatalf("clone's fused probs = %v, want %v", got, fast)
	}

	other, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 12,
		rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name  string
		write func()
	}{
		{"SetParams", func() {
			ps := p.Net.FlattenParams(nil)
			for i := range ps {
				ps[i] *= 0.97
			}
			p.Net.SetParams(ps)
		}},
		{"SyncFrom", func() { p.Net.SyncFrom(other.Net) }},
		{"UpdateStats", func() { p.Net.UpdateStats([]float64{2, -1, 0.5}) }},
		{"training Forward", func() { p.Net.Forward([]float64{-3, 1, 4}, true) }},
	} {
		before := fastProbs(p)
		w.write()
		got, want := fastProbs(p), fastProbs(p.Clone())
		if !slices.Equal(got, want) {
			t.Fatalf("fused probs after %s = %v, fresh clone's %v", w.name, got, want)
		}
		if slices.Equal(got, before) {
			t.Fatalf("%s left the fused probs at %v: the write did not reach the fold", w.name, got)
		}
	}
}
