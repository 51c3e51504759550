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

// The FastMath tolerance pillar: the fused approximate kernels
// (nn.KernelFast) against the exact path, measured on the real decision
// states a greedy simplification visits — not synthetic vectors — across
// the full adversarial generator set, all measures and variants, and
// fresh random policy weights each round.
//
// Unlike the batch-engine differential (bitwise, DESIGN.md §12), FastMath
// is an explicit relaxation with a published contract (DESIGN.md §13,
// nn/fastmath.go):
//
//  1. every Probs output is within nn.FastProbsMaxAbsError absolute
//     and nn.FastProbsMaxRelError relative error of the exact value
//     (relative checked above nn.FastProbsRelFloor, where ULP distance
//     is meaningful);
//  2. the argmax decision of every decision state is unchanged — the
//     invariant serving actually relies on;
//  3. end to end, greedy fast simplification keeps the same indices as
//     greedy exact simplification on every adversarial family.
//
// (3) follows from (2) on these fixed seeds (same decisions → same next
// state, inductively), but is asserted independently so a divergence
// reports at the level operators observe it.

func TestFastMathTolerance(t *testing.T) {
	variants := []core.Variant{core.Online, core.Plus, core.PlusPlus}
	for _, g := range generators {
		g := g
		t.Run(g.name, func(t *testing.T) {
			rounds := scaled(2)
			var maxAbs, maxRel float64
			rows := 0
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

						trace, err := core.TraceGreedy(p, tr, w, opts)
						if err != nil {
							t.Fatalf("%s %s %s: trace: %v", g.name, m, v, err)
						}
						if len(trace.Actions) == 0 {
							continue // trajectory fit the budget, no decisions
						}

						fast := p.Clone()
						fast.SetKernel(nn.KernelFast)

						b := len(trace.Actions)
						in := trace.StateSize
						for row := 0; row < b; row++ {
							state := trace.States[row*in : (row+1)*in]
							er := p.Probs(state, trace.Masks[row], false)
							fr := fast.Probs(state, trace.Masks[row], false)
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

						// End-to-end oracle: greedy fast run keeps the same
						// indices as the traced exact run.
						kept, err := core.Simplify(fast, tr, w, opts, false, nil)
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
			t.Logf("%s: %d decision rows, max abs err %.3g (bound %.1g), max rel err %.3g (bound %.1g)",
				g.name, rows, maxAbs, nn.FastProbsMaxAbsError, maxRel, nn.FastProbsMaxRelError)
		})
	}
}

// TestFastCloneIsolation pins the opt-in shape of FastMath: FastClone
// selects the fast kernel on an independent copy, the original stays
// exact, and a clone of a fast policy inherits the fast kernel (the
// property the serving clone pools rely on).
func TestFastCloneIsolation(t *testing.T) {
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
	probs := func(p *rl.Policy) []float64 {
		return append([]float64(nil), p.Probs(state, nil, false)...)
	}
	tr := &core.Trained{Opts: opts, Policy: p}
	exact := probs(p)
	ft := tr.FastClone()
	fast := probs(ft.Policy)
	if slices.Equal(fast, exact) {
		t.Fatalf("FastClone probs %v equal the exact kernel's bit for bit, want the fast kernel", fast)
	}
	if got := probs(tr.Policy); !slices.Equal(got, exact) {
		t.Fatalf("original probs after FastClone = %v, want exact %v", got, exact)
	}
	if got := probs(ft.Policy.Clone()); !slices.Equal(got, fast) {
		t.Fatalf("clone of fast policy probs = %v, want fast %v", got, fast)
	}
}
