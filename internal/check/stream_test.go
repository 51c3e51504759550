package check

import (
	"math"
	"math/rand"
	"testing"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/geo"
	"rlts/internal/rl"
	"rlts/internal/traj"
)

// The push-based core.Streamer and the slice-based online core.Simplify
// are two drivers of one MDP: both run the same per-point step code
// (fill, tentative append, state build, drop with neighbour repair), and
// differ only in the final-point index that masks skips — known for a
// trajectory in memory, unbounded for a stream. With no skip actions
// every decision point, state vector and action mask therefore coincide,
// and feeding both the identical stream with the identical policy must
// produce the identical simplification — exactly; this differential is
// the regression net under that construction. With skip actions the tail
// behaviour legitimately diverges (the scan env masks skips that
// overshoot the known end; a streamer cannot know the end), so the
// harness asserts structural invariants instead.

func checkPolicy(t *testing.T, opts core.Options, seed int64) *rl.Policy {
	t.Helper()
	p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 8, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func snapshotOf(t *testing.T, p *rl.Policy, tr traj.Trajectory, w int, opts core.Options, sample bool, r *rand.Rand) []geo.Point {
	t.Helper()
	s, err := core.NewStreamer(p, w, opts, sample, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range tr {
		s.Push(pt)
	}
	return s.Snapshot()
}

func TestStreamerMatchesSimplifyNoSkip(t *testing.T) {
	for _, g := range generators {
		g := g
		t.Run(g.name, func(t *testing.T) {
			rounds := scaled(4)
			for round := 0; round < rounds; round++ {
				r := rand.New(rand.NewSource(int64(4000 + round)))
				tr := g.gen(r, 40+r.Intn(80))
				for _, m := range errm.Measures {
					for _, sample := range []bool{false, true} {
						opts := core.Options{Measure: m, Variant: core.Online, K: 3}
						p := checkPolicy(t, opts, int64(round)*10+int64(m))
						w := 5 + r.Intn(10)

						// Two independent rand streams from one seed: the
						// policy consumes them identically on both paths.
						seed := int64(round*100 + int(m))
						kept, err := core.Simplify(p, tr, w, opts, sample, rand.New(rand.NewSource(seed)))
						if err != nil {
							t.Fatal(err)
						}
						snap := snapshotOf(t, p, tr, w, opts, sample, rand.New(rand.NewSource(seed)))

						if len(snap) != len(kept) {
							t.Fatalf("%s %s sample=%v round %d: stream %d points, simplify %d",
								g.name, m, sample, round, len(snap), len(kept))
						}
						for i, ix := range kept {
							if !snap[i].Equal(tr[ix]) {
								t.Fatalf("%s %s sample=%v round %d: point %d differs: stream %v simplify %v",
									g.name, m, sample, round, i, snap[i], tr[ix])
							}
						}
					}
				}
			}
		})
	}
}

func TestStreamerSkipInvariants(t *testing.T) {
	// J > 0: the snapshot must still be a valid simplification of the feed
	// — a subsequence spanning first..last observation, within budget, a
	// valid traj.FromPoints input, with finite error under its measure.
	for _, g := range generators {
		g := g
		t.Run(g.name, func(t *testing.T) {
			rounds := scaled(4)
			for round := 0; round < rounds; round++ {
				r := rand.New(rand.NewSource(int64(5000 + round)))
				tr := g.gen(r, 40+r.Intn(80))
				for _, m := range errm.Measures {
					for _, j := range []int{1, 2} {
						opts := core.Options{Measure: m, Variant: core.Online, K: 3, J: j}
						p := checkPolicy(t, opts, int64(round)*10+int64(m))
						w := 5 + r.Intn(10)
						snap := snapshotOf(t, p, tr, w, opts, true, rand.New(rand.NewSource(int64(round))))

						if len(snap) > w+1 {
							t.Fatalf("%s %s J=%d: snapshot %d points with W=%d", g.name, m, j, len(snap), w)
						}
						if !snap[0].Equal(tr[0]) || !snap[len(snap)-1].Equal(tr[len(tr)-1]) {
							t.Fatalf("%s %s J=%d: snapshot does not span first..last", g.name, m, j)
						}
						kept := subsequenceIndices(t, tr, snap)
						if kept == nil {
							t.Fatalf("%s %s J=%d: snapshot is not a subsequence of the feed", g.name, m, j)
						}
						raw := make([][3]float64, len(snap))
						for i, q := range snap {
							raw[i] = [3]float64{q.X, q.Y, q.T}
						}
						if _, err := traj.FromPoints(raw); err != nil {
							t.Fatalf("%s %s J=%d: snapshot invalid: %v", g.name, m, j, err)
						}
						if e := errm.Error(m, tr, kept); math.IsNaN(e) || math.IsInf(e, 0) {
							t.Fatalf("%s %s J=%d: snapshot error %v", g.name, m, j, e)
						}
					}
				}
			}
		})
	}
}

// subsequenceIndices maps snapshot points back to strictly increasing
// indices of tr, or nil if the snapshot is not a subsequence.
func subsequenceIndices(t *testing.T, tr traj.Trajectory, snap []geo.Point) []int {
	t.Helper()
	kept := make([]int, 0, len(snap))
	j := 0
	for _, q := range snap {
		for j < len(tr) && !tr[j].Equal(q) {
			j++
		}
		if j == len(tr) {
			return nil
		}
		kept = append(kept, j)
		j++
	}
	return kept
}
