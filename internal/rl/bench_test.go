package rl

import (
	"math/rand"
	"testing"
)

// staticEnv is a benchmark env that reuses its state and mask buffers the
// way the real MDPs do, so the rollout machinery is measured in isolation.
type staticEnv struct {
	step, n int
	state   []float64
	mask    []bool
}

func (s *staticEnv) Reset() ([]float64, []bool, bool) {
	s.step = 0
	if s.state == nil {
		s.state = []float64{1, 0}
		s.mask = []bool{true, true}
	}
	return s.state, s.mask, false
}

func (s *staticEnv) Step(a int) ([]float64, []bool, float64, bool) {
	s.step++
	r := 0.0
	if a == 0 {
		r = 1
	}
	return s.state, s.mask, r, s.step >= s.n
}

func (s *staticEnv) StateSize() int  { return 2 }
func (s *staticEnv) NumActions() int { return 2 }

// BenchmarkRollout measures one 50-step episode through the reusable
// rollout path: with episode and policy scratch warm, the loop must not
// allocate at all.
func BenchmarkRollout(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	p, err := NewPolicy(2, 2, 20, r)
	if err != nil {
		b.Fatal(err)
	}
	env := &staticEnv{n: 50}
	ep := &Episode{}
	rolloutInto(ep, env, p, r, false) // warm the buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rolloutInto(ep, env, p, r, false)
	}
}

// BenchmarkProbsInto measures the zero-allocation forward used by the
// rollout and gradient hot paths.
func BenchmarkProbsInto(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	p, err := NewPolicy(3, 3, 20, r)
	if err != nil {
		b.Fatal(err)
	}
	state := []float64{0.1, 0.5, 1.2}
	mask := []bool{true, true, true}
	p.probsInto(state, mask, false) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.probsInto(state, mask, false)
	}
}
