package rlts_test

import (
	"math/rand"
	"runtime"
	"testing"

	"rlts"
	"rlts/internal/core"
	"rlts/internal/gen"
	"rlts/internal/obs"
	"rlts/internal/traj"
	"rlts/pretrained"
)

// servedPolicy is the embedded RLTS+/SED policy, the one POST
// /v1/simplify serves for "rlts+" under SED.
func servedPolicy(tb testing.TB) *core.Trained {
	tb.Helper()
	p, err := pretrained.Load(rlts.SED, rlts.Plus)
	if err != nil {
		tb.Fatal(err)
	}
	return p.Internal()
}

// servedTrajectories returns perfbench single_long's traffic shape: 16
// seeded Truck trajectories of 5,000 to 20,000 points.
func servedTrajectories() []traj.Trajectory {
	r := rand.New(rand.NewSource(1))
	out := make([]traj.Trajectory, 16)
	for i := range out {
		out[i] = gen.New(gen.Truck(), r.Int63()).Trajectory(5000 + 1000*i)
	}
	return out
}

// BenchmarkServedRLTSPlus runs the served simplify of a single_long
// request in process: the embedded RLTS+/SED policy, greedy, at
// W = n/10, over servedTrajectories. It reports ns and heap allocations
// per input point, and the share of decisions the certified forward left
// to the exact one (rlts_policy_fallbacks_total over
// rlts_simplify_steps_total, counted in a registry of its own).
// BenchmarkRLTSPlusBatch runs an untrained network instead, whose
// decisions and Eq. 12 span lengths are not the served ones.
func BenchmarkServedRLTSPlus(b *testing.B) {
	tr := servedPolicy(b)
	reg := obs.NewRegistry()
	tr.UseRegistry(reg)
	ts := servedTrajectories()
	pts := 0
	for _, t := range ts {
		pts += len(t)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range ts {
			if _, err := tr.SimplifyGreedy(t, len(t)/10); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(pts)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/pt")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/pt")
	b.ReportMetric(float64(reg.Counter("rlts_policy_fallbacks_total", "").Value())/
		float64(reg.Counter("rlts_simplify_steps_total", "").Value()), "fallbacks/decision")
}

// TestServedSimplifyAllocs holds the served simplify to a fixed number of
// heap allocations per run, independent of the trajectory's length: the
// buffer's entries come from one slab and removed entries are reused, so
// no allocation is made per point.
func TestServedSimplifyAllocs(t *testing.T) {
	tr := servedPolicy(t)
	for _, n := range []int{5000, 20000} {
		tj := gen.New(gen.Truck(), int64(n)).Trajectory(n)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := tr.SimplifyGreedy(tj, n/10); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 32 {
			t.Errorf("n=%d: %v allocations per run, want at most 32", n, allocs)
		}
	}
}
