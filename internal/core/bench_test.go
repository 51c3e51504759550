package core

import (
	"math/rand"
	"testing"

	"rlts/internal/errm"
	"rlts/internal/rl"
)

// BenchmarkBuildState measures the decision-state construction of the
// scanning MDP — the single hottest call of both training and inference.
// With the env scratch warm it should not allocate.
func BenchmarkBuildState(b *testing.B) {
	t := smallDataset(1, 1, 2000)[0]
	for _, name := range []string{"online", "batch-skip"} {
		b.Run(name, func(b *testing.B) {
			opts := DefaultOptions(errm.SED, Online)
			if name == "batch-skip" {
				opts = DefaultOptions(errm.SED, Plus)
				opts.J = 2
			}
			env := newScanEnv(t, 200, opts, false)
			if _, _, done := env.Reset(); done {
				b.Fatal("degenerate episode")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = env.buildState()
			}
		})
	}
}

// BenchmarkRolloutEpisode measures one full sampled episode on the real
// scanning MDP, rewards included: a trainer rollout without the copy into
// episode storage.
func BenchmarkRolloutEpisode(b *testing.B) {
	t := smallDataset(2, 1, 500)[0]
	opts := DefaultOptions(errm.SED, Online)
	env := newScanEnv(t, 50, opts, true)
	r := rand.New(rand.NewSource(3))
	p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 20, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state, mask, done := env.Reset()
		for !done {
			state, mask, _, done = env.Step(p.Act(state, mask, true, r))
		}
	}
}

// BenchmarkStreamerPush measures one Push into a warm streamer: past the
// fill every push is a full online decision (tentative append, state
// build, policy forward, drop and neighbour repair). Timestamps advance
// by the trajectory's span on every lap so pushes never repeat one.
func BenchmarkStreamerPush(b *testing.B) {
	t := smallDataset(4, 1, 4096)[0]
	opts := DefaultOptions(errm.SED, Online)
	p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 20, rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewStreamer(p, 200, opts, false, nil)
	if err != nil {
		b.Fatal(err)
	}
	span := t[len(t)-1].T + 1
	push := func(i int) {
		pt := t[i%len(t)]
		pt.T += float64(i/len(t)) * span
		s.Push(pt)
	}
	const warm = 400
	for i := 0; i < warm; i++ {
		push(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(warm + i)
	}
}
