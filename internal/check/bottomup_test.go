package check

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"rlts/internal/baseline/batch"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/traj"
)

// TestGoldenBottomUp pins Bottom-Up's kept indices as literal digests,
// one row per measure and input: the three seeded Geolife trajectories
// of the decision golden at W = 30 and W = 90, and one seeded
// 2,000-point Truck trajectory at W = 200. Each row is the SHA-256 of
// the kept indices ("i i i\n" per trajectory). Bottom-Up is the
// reference of the Figure 3 comparison and of perfbench's error ratio,
// so a change that moves one of its drops fails here by name.
func TestGoldenBottomUp(t *testing.T) {
	tests := []struct {
		Name   string
		Expect string
	}{
		{"DAD/geolife/W30", "0fdab95103d24cc866d1ce96e03a633dff23caaa5fccf4f237160aed81d8d163"},
		{"DAD/geolife/W90", "153197c0238b318ad5f63fb5eb8304d1a7b4f2147cf7229fda419a313d90fdeb"},
		{"DAD/truck/W200", "ef02a97dda26edd01a2007f5faaa214904a1f53b10de80f78b146cb5014fc7a9"},
		{"PED/geolife/W30", "40e091af336257d59350863ec4d5e6ad61dede8ae844198a79dff1623fa4c7b5"},
		{"PED/geolife/W90", "f85d8774097a20d538960beeab331712209a34afeecfbfad5215c8c6f3c0a2ea"},
		{"PED/truck/W200", "71335f2296cf8e6fb634eef02b1b93675546555fc227c8a13e11496f9729ba52"},
		{"SAD/geolife/W30", "637c257bcdf9af11a246d681de3bf98743ecd4381885e173ba801d468b74bb7a"},
		{"SAD/geolife/W90", "ed2789c769d9fe195fc253a4bdd0c99074760157f78d4600746d4f756c5fe36e"},
		{"SAD/truck/W200", "183feaef7bba52933fa97460db65f524357f2b2a7b110d9d51ccbb958402a306"},
		{"SED/geolife/W30", "c39802fd6177e2e0e2364f49fb6437000831bfc2ed2453fccfce379e2695fd26"},
		{"SED/geolife/W90", "a330d67a7b34f9d0ffc9d9263f46432940fa0808925f0b677c81ce4f1d3bc556"},
		{"SED/truck/W200", "89f000f50e0ef04d78b49f3cf2ccded8c66452eb745bbdeb5065e7971cae656b"},
	}
	inputs := []struct {
		name string
		trs  []traj.Trajectory
		w    int
	}{
		{"geolife/W30", gen.New(gen.Geolife(), 2021).Dataset(3, 300), goldenW},
		{"geolife/W90", gen.New(gen.Geolife(), 2021).Dataset(3, 300), 90},
		{"truck/W200", gen.New(gen.Truck(), 2021).Dataset(1, 2000), 200},
	}
	got := map[string]string{}
	for _, m := range errm.Measures {
		for _, in := range inputs {
			h := sha256.New()
			for _, tr := range in.trs {
				kept, err := batch.BottomUp(tr, in.w, m)
				if err != nil {
					t.Fatal(err)
				}
				writeKept(h, kept)
			}
			got[fmt.Sprintf("%s/%s", m, in.name)] = hex.EncodeToString(h.Sum(nil))
		}
	}
	if len(got) != len(tests) {
		t.Errorf("%d digests computed, %d expected", len(got), len(tests))
	}
	for _, tc := range tests {
		t.Run(tc.Name, func(t *testing.T) {
			if d, ok := got[tc.Name]; !ok {
				t.Fatal("row not computed")
			} else if d != tc.Expect {
				t.Fatalf("digest %s, want %s", d, tc.Expect)
			}
		})
	}
}

// TestBottomUpIsPlusPlusDropMin holds the Figure 3 baseline to its
// definition inside the ++ MDP: Bottom-Up drops, at every step, the
// point whose removal creates the cheapest segment (the lowest Eq. 12
// value), which is RLTS++ always taking drop action 0. The kept indices
// must be identical for K = 1 and K = 3 over every adversarial family,
// every measure and budgets from the tightest (W = 2) to one drop
// (W = n-1). Ties between equal values must break the same way too,
// which the collinear and stationary families provoke.
func TestBottomUpIsPlusPlusDropMin(t *testing.T) {
	for _, g := range generators {
		g := g
		t.Run(g.name, func(t *testing.T) {
			rounds := scaled(2)
			for round := 0; round < rounds; round++ {
				for _, n := range []int{20, 60, 300} {
					tr := g.gen(rand.New(rand.NewSource(int64(16000+round*1000+n))), n)
					for _, m := range errm.Measures {
						for _, w := range []int{2, 3, n / 10, n / 3, n - 1} {
							want, err := batch.BottomUp(tr, w, m)
							if err != nil {
								t.Fatal(err)
							}
							for _, k := range []int{1, 3} {
								opts := core.Options{Measure: m, Variant: core.PlusPlus, K: k}
								kept, err := core.SimplifyFixedAction(tr, w, opts, 0)
								if err != nil {
									t.Fatal(err)
								}
								if !sameInts(kept, want) {
									t.Fatalf("%s round %d n=%d %s W=%d K=%d: RLTS++ drop-min %v != Bottom-Up %v",
										g.name, round, n, m, w, k, kept, want)
								}
							}
						}
					}
				}
			}
		})
	}
}
