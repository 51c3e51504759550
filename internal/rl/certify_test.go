package rl

import (
	"math"
	"math/rand"
	"testing"

	"rlts/internal/nn"
)

// drawSource is a rand.Source whose every Int63 is v, so its first
// Float64 is v/2^63, and which counts the draws taken from it.
type drawSource struct {
	v     int64
	draws int
}

func (s *drawSource) Int63() int64 { s.draws++; return s.v }
func (s *drawSource) Seed(int64)   {}

// exactDecision is Act's decision from the exact forward alone, at the
// uniform draw u when sampling. ok is false when the exact path itself
// panics (no legal action survives a non-finite forward).
func exactDecision(p *Policy, state []float64, mask []bool, sample bool, u float64) (a int, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	probs := p.Probs(state, mask, false)
	if sample {
		return sampleAt(probs, u), true
	}
	return GreedyAction(probs), true
}

// act is p.Act at the draw v/2^63; ok is false when it panics. It also
// returns how many draws Act took.
func act(p *Policy, state []float64, mask []bool, sample bool, v int64) (a, draws int, ok bool) {
	src := &drawSource{v: v}
	defer func() {
		if recover() != nil {
			draws, ok = src.draws, false
		}
	}()
	a = p.Act(state, mask, sample, rand.New(src))
	return a, src.draws, true
}

// FuzzActCertified holds Act to the exact forward's decision, greedy and
// sampled at the same draw, over fuzzed small networks (hidden width,
// weight and batch-norm statistic scales), states (huge, zero and
// non-finite values included), masks and draws. A sampled Act takes
// exactly one draw, a greedy one none.
func FuzzActCertified(f *testing.F) {
	f.Add(int64(1), uint8(20), 1.0, 1.0, 0.37, 0.4, -1.2, 3.5, uint8(7))
	f.Add(int64(2), uint8(8), 1.0, 1.0, 0.99, 0.0, 0.0, 0.0, uint8(7))
	f.Add(int64(3), uint8(5), 50.0, 1e-3, 0.5, 1e300, -1e300, 1.0, uint8(5))
	f.Add(int64(4), uint8(16), 1e-8, 1e6, 0.001, math.Inf(1), 2.0, 3.0, uint8(6))
	f.Add(int64(5), uint8(3), 1e150, 1.0, 0.75, math.NaN(), 1.0, 1.0, uint8(3))
	f.Add(int64(6), uint8(1), 0.0, 0.0, 0.25, 5e-324, -5e-324, 1e-300, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, hidden uint8, wScale, statScale, u, s0, s1, s2 float64, maskBits uint8) {
		if math.IsNaN(wScale) || math.IsInf(wScale, 0) || math.IsNaN(statScale) || math.IsInf(statScale, 0) {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		p, err := NewPolicy(3, 3, 1+int(hidden)%24, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, prm := range p.Net.Params() {
			for i := range prm.Val {
				prm.Val[i] = wScale * r.NormFloat64()
			}
		}
		for _, l := range p.Net.Layers {
			if bn, ok := l.(*nn.BatchNorm); ok {
				for i := range bn.Mean {
					bn.Mean[i] = statScale * r.NormFloat64()
					bn.Var[i] = math.Abs(statScale) * r.Float64()
				}
			}
		}
		p.Net.Refold()
		mask := []bool{maskBits&1 != 0, maskBits&2 != 0, maskBits&4 != 0}
		if maskBits&7 == 0 {
			mask = nil
		}
		// A 53-bit draw shifted into place: v/2^63 is exact and below 1.
		v := int64(math.Abs(u-math.Trunc(u))*(1<<53)) << 10
		if v < 0 {
			v = 0
		}
		state := []float64{s0, s1, s2}
		for _, sample := range []bool{false, true} {
			want, wantOK := exactDecision(p, state, mask, sample, float64(v)/(1<<63))
			got, draws, gotOK := act(p, state, mask, sample, v)
			if gotOK != wantOK || (gotOK && got != want) {
				t.Fatalf("sample=%v state %v mask %v: Act = %d (ok %v), exact decision %d (ok %v)",
					sample, state, mask, got, gotOK, want, wantOK)
			}
			if wantDraws := map[bool]int{false: 0, true: 1}[sample]; draws != wantDraws {
				t.Fatalf("sample=%v: Act took %d draws, want %d", sample, draws, wantDraws)
			}
		}
	})
}

// TestActNearTieFallsBack hand-builds an exact tie: two identical output
// rows give actions 0 and 1 the same logit on every state, so no bound
// can separate them. Act must fall back to the exact forward and return
// GreedyAction's first index, and count the fallback.
func TestActNearTieFallsBack(t *testing.T) {
	p, err := NewPolicy(3, 3, 20, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	out := p.Net.Layers[len(p.Net.Layers)-1].(*nn.Dense)
	copy(out.W.Val[20:40], out.W.Val[0:20])
	out.B.Val[0], out.B.Val[1], out.B.Val[2] = 1, 1, -5
	p.Net.Refold()
	state := []float64{0.3, -1.1, 2.4}
	p.TakeFallbacks()
	if a := p.Act(state, nil, false, nil); a != 0 {
		t.Fatalf("Act on a tie between 0 and 1 = %d, want GreedyAction's first index 0", a)
	}
	if a := p.Act(state, []bool{false, true, true}, false, nil); a != 1 {
		t.Fatalf("Act with 0 masked = %d, want 1", a)
	}
	if n := p.TakeFallbacks(); n != 1 {
		t.Fatalf("%d fallbacks, want 1: the masked decision is separable, the tie is not", n)
	}
}

// TestActOnMasterAcrossTraining runs Act on the policy a trainer updates
// in place, before and after one training batch: the batch moves the
// weights under any plan folded before it, and every decision must still
// be the exact forward's.
func TestActOnMasterAcrossTraining(t *testing.T) {
	p, err := NewPolicy(2, 2, 8, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	probes := make([][]float64, 400)
	for i := range probes {
		probes[i] = []float64{r.NormFloat64(), r.NormFloat64()}
	}
	mask := []bool{true, true}
	decide := func() []int {
		out := make([]int, len(probes))
		for i, s := range probes {
			out[i] = p.Act(s, mask, false, nil)
			if want, _ := exactDecision(p, s, mask, false, 0); out[i] != want {
				t.Fatalf("probe %d %v: Act = %d, exact decision %d", i, s, out[i], want)
			}
		}
		return out
	}
	before := decide()
	cfg := DefaultTrainConfig()
	cfg.Episodes = 4
	cfg.LearningRate = 0.5
	cfg.Seed = 3
	if _, err := TrainPolicy(p, []Env{&banditEnv{n: 5}}, cfg); err != nil {
		t.Fatal(err)
	}
	after := decide()
	changed := 0
	for i := range before {
		if before[i] != after[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("the training batch changed no probe's decision; the test has no power")
	}
}
