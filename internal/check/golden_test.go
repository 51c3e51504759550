package check

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"rlts"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/rl"
	"rlts/internal/traj"
	"rlts/pretrained"
)

// Decision golden: every decision path of the scanning MDP, pinned as
// literal digests. Each row is the SHA-256 of the kept indices a path
// produces over three seeded Geolife trajectories ("i i i\n" per
// trajectory). A refactor that forks a single decision anywhere fails
// the row naming that path. The digests are exact float64 consequences
// of the policy forward pass and are pinned on amd64, whose compiler
// does not fuse multiply-adds.
//
// Row names read policy/measure/mode/path: policy is an embedded
// pretrained policy (online, plus) or a seeded untrained RLTS-Skip
// (J=2) policy (skip); path is core.Simplify (simplify), a Streamer fed
// the whole trajectory (stream), or a Streamer exported, re-encoded and
// resumed at the midpoint (resume).
func TestGoldenDecisions(t *testing.T) {
	tests := []struct {
		Name   string
		Expect string
	}{
		{"online/DAD/greedy/resume", "9d785d3292ef9174051dc6f1ed237f2f4b344318a93cf5f42dabb7f987af8f6e"},
		{"online/DAD/greedy/simplify", "9d785d3292ef9174051dc6f1ed237f2f4b344318a93cf5f42dabb7f987af8f6e"},
		{"online/DAD/greedy/stream", "9d785d3292ef9174051dc6f1ed237f2f4b344318a93cf5f42dabb7f987af8f6e"},
		{"online/DAD/sampled/resume", "4e7f72c997956699eaae08d54cd84f98c025c2575837af7a0435de349859dffc"},
		{"online/DAD/sampled/simplify", "4e7f72c997956699eaae08d54cd84f98c025c2575837af7a0435de349859dffc"},
		{"online/DAD/sampled/stream", "4e7f72c997956699eaae08d54cd84f98c025c2575837af7a0435de349859dffc"},
		{"online/PED/greedy/resume", "b8a85b248c5097e0bcb99ddbc7239881fdbfb7ad8d83112e441d266be883cc5b"},
		{"online/PED/greedy/simplify", "b8a85b248c5097e0bcb99ddbc7239881fdbfb7ad8d83112e441d266be883cc5b"},
		{"online/PED/greedy/stream", "b8a85b248c5097e0bcb99ddbc7239881fdbfb7ad8d83112e441d266be883cc5b"},
		{"online/PED/sampled/resume", "8700219cf9a1244294e5f9f825525e9454129b4edbdb2700f805a14c3dcea096"},
		{"online/PED/sampled/simplify", "8700219cf9a1244294e5f9f825525e9454129b4edbdb2700f805a14c3dcea096"},
		{"online/PED/sampled/stream", "8700219cf9a1244294e5f9f825525e9454129b4edbdb2700f805a14c3dcea096"},
		{"online/SAD/greedy/resume", "47bfae6b40e9bfca7e477b4e6f966edc19e8f31f2b556024b059a134fcd1fe65"},
		{"online/SAD/greedy/simplify", "47bfae6b40e9bfca7e477b4e6f966edc19e8f31f2b556024b059a134fcd1fe65"},
		{"online/SAD/greedy/stream", "47bfae6b40e9bfca7e477b4e6f966edc19e8f31f2b556024b059a134fcd1fe65"},
		{"online/SAD/sampled/resume", "2decaad061a464a021d23e32c884a13cfe0c8887d5cd02b692286e1685569b21"},
		{"online/SAD/sampled/simplify", "2decaad061a464a021d23e32c884a13cfe0c8887d5cd02b692286e1685569b21"},
		{"online/SAD/sampled/stream", "2decaad061a464a021d23e32c884a13cfe0c8887d5cd02b692286e1685569b21"},
		{"online/SED/greedy/resume", "a733b62d3849a2e493cf46d584aabbfdd61caa5d8190cce4253f226141c4d18d"},
		{"online/SED/greedy/simplify", "a733b62d3849a2e493cf46d584aabbfdd61caa5d8190cce4253f226141c4d18d"},
		{"online/SED/greedy/stream", "a733b62d3849a2e493cf46d584aabbfdd61caa5d8190cce4253f226141c4d18d"},
		{"online/SED/sampled/resume", "a8501f9ea4e5b998021cbcaae083ed14c534c7d0e639f1d6182f2b8afa02d262"},
		{"online/SED/sampled/simplify", "a8501f9ea4e5b998021cbcaae083ed14c534c7d0e639f1d6182f2b8afa02d262"},
		{"online/SED/sampled/stream", "a8501f9ea4e5b998021cbcaae083ed14c534c7d0e639f1d6182f2b8afa02d262"},
		{"plus/DAD/greedy/simplify", "f7fffad0797d9715ea6043bb647b5107fffaa83c25cb3205615b69ca929e9cd4"},
		{"plus/DAD/sampled/simplify", "2c2f99b3268c921302aa2c47a2178ad3ad3beb6e7fb108c94bda63bf9fb570ea"},
		{"plus/PED/greedy/simplify", "64b127e95469bf430e61a523de501212c4f23e67b1a4231434182212fc2156a1"},
		{"plus/PED/sampled/simplify", "7ae73ebde5639a52484c401355da621588829520a3faf6483d5ceda49555a21f"},
		{"plus/SAD/greedy/simplify", "52203a69ed9d59fd833aeaf0d0dab70812bec729b96fa409a5242c36ca2eb298"},
		{"plus/SAD/sampled/simplify", "1b6ae4cb35ca4831be70518db2767dbb43c9a5d3f7e9be453c2272719c9a7c94"},
		{"plus/SED/greedy/simplify", "d5093808f71ac218c9972ee36cbd39b4ad2366f2caf2afdc9ba9d2796448ed95"},
		{"plus/SED/sampled/simplify", "1c82d02eaf40d7055ff5c76330abd43e5f5031f755e2e0f883fbe1eb7e81d9f8"},
		{"skip/DAD/greedy/resume", "bd832f001456d42d769054fb8ff0736ba1d689f66e75ba5dda42206682a24340"},
		{"skip/DAD/greedy/simplify", "dbd4a443a08fa46543042ad21609e92762fb34674952e98dc3b1ab9a1de41467"},
		{"skip/DAD/greedy/stream", "bd832f001456d42d769054fb8ff0736ba1d689f66e75ba5dda42206682a24340"},
		{"skip/DAD/sampled/resume", "67552a61f20a5a7136edd439f4f29df9c07e8c21ed5b4943dc40c4b936e17c4b"},
		{"skip/DAD/sampled/simplify", "a21119d082d3e71b3687f687c0e3173a11fd946bf6a824ab9fe346ec93fd11a0"},
		{"skip/DAD/sampled/stream", "67552a61f20a5a7136edd439f4f29df9c07e8c21ed5b4943dc40c4b936e17c4b"},
		{"skip/PED/greedy/resume", "7e66c934d1fd700bb58e2ede0c7f53d73e219d317ee30482f0766602a6b7846a"},
		{"skip/PED/greedy/simplify", "b253fcbc9401b69247a0adc95daa735612c831b3b74261ab78d798478c4083bf"},
		{"skip/PED/greedy/stream", "7e66c934d1fd700bb58e2ede0c7f53d73e219d317ee30482f0766602a6b7846a"},
		{"skip/PED/sampled/resume", "78c716e914caf607e491feb7764bd91db219359f19b4ccd8691295b1765a36e6"},
		{"skip/PED/sampled/simplify", "037282a99c0de85318cef7719214956aaf4a6dd8f81189ab885e8bff7a82bd3b"},
		{"skip/PED/sampled/stream", "78c716e914caf607e491feb7764bd91db219359f19b4ccd8691295b1765a36e6"},
		{"skip/SAD/greedy/resume", "7174de0a0389a09f0c22bd7bb36d3bda194da3b36e415ed6b8fcfa6678b13089"},
		{"skip/SAD/greedy/simplify", "6c460aeac997fde7a284501a512c36ece9defb13372f8e9232e8c31137794b11"},
		{"skip/SAD/greedy/stream", "7174de0a0389a09f0c22bd7bb36d3bda194da3b36e415ed6b8fcfa6678b13089"},
		{"skip/SAD/sampled/resume", "9114d567ac33fbea4f0205d101370ca02f8de477a26b12283d90bd65f139559a"},
		{"skip/SAD/sampled/simplify", "5f7705331a1f35a0c0e1cca9d92528e74998bc534c05fa45cb0866eb9806d196"},
		{"skip/SAD/sampled/stream", "9114d567ac33fbea4f0205d101370ca02f8de477a26b12283d90bd65f139559a"},
		{"skip/SED/greedy/resume", "7e66c934d1fd700bb58e2ede0c7f53d73e219d317ee30482f0766602a6b7846a"},
		{"skip/SED/greedy/simplify", "9c5c25555a238db45c9ff686c5c4980b1ce72de1700cbc82c3dbc7debad7cd4c"},
		{"skip/SED/greedy/stream", "7e66c934d1fd700bb58e2ede0c7f53d73e219d317ee30482f0766602a6b7846a"},
		{"skip/SED/sampled/resume", "962ea7f8fd6963cdb630739a7e1a6609972b43d98ab2c94425014cc63ae3363e"},
		{"skip/SED/sampled/simplify", "467c562498f09f06978e92df446276f78f7be57c47c879e93a46c0164f4a78ad"},
		{"skip/SED/sampled/stream", "962ea7f8fd6963cdb630739a7e1a6609972b43d98ab2c94425014cc63ae3363e"},
	}
	got := goldenDigests(t)
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

const goldenW = 30

func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	trs := gen.New(gen.Geolife(), 2021).Dataset(3, 300)
	out := map[string]string{}
	add := func(name string, run func(tr traj.Trajectory, seed int64) []int) {
		h := sha256.New()
		for i, tr := range trs {
			writeKept(h, run(tr, int64(100+i)))
		}
		out[name] = hex.EncodeToString(h.Sum(nil))
	}
	for _, m := range errm.Measures {
		for _, sample := range []bool{false, true} {
			mode := "greedy"
			if sample {
				mode = "sampled"
			}
			type policy struct {
				name   string
				p      *rl.Policy
				opts   core.Options
				stream bool
			}
			var pols []policy
			for _, v := range []rlts.Variant{rlts.Online, rlts.Plus} {
				pp, err := pretrained.Load(m, v)
				if err != nil {
					t.Fatal(err)
				}
				tr := pp.Internal()
				name := "online"
				if v == rlts.Plus {
					name = "plus"
				}
				pols = append(pols, policy{name, tr.Policy, tr.Opts, v == rlts.Online})
			}
			skip := core.Options{Measure: m, Variant: core.Online, K: 3, J: 2}
			pols = append(pols, policy{"skip", checkPolicy(t, skip, 77+int64(m)), skip, true})

			for _, pol := range pols {
				pol := pol
				prefix := fmt.Sprintf("%s/%s/%s/", pol.name, m, mode)
				add(prefix+"simplify", func(tr traj.Trajectory, seed int64) []int {
					kept, err := core.Simplify(pol.p, tr, goldenW, pol.opts, sample, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatal(err)
					}
					return kept
				})
				if !pol.stream {
					continue
				}
				add(prefix+"stream", func(tr traj.Trajectory, seed int64) []int {
					s := goldenStreamer(t, pol.p, pol.opts, sample, seed)
					for _, p := range tr {
						s.Push(p)
					}
					return subsequenceIndices(t, tr, s.Snapshot())
				})
				add(prefix+"resume", func(tr traj.Trajectory, seed int64) []int {
					s := goldenStreamer(t, pol.p, pol.opts, sample, seed)
					half := len(tr) / 2
					for _, p := range tr[:half] {
						s.Push(p)
					}
					st, err := core.DecodeStreamerState(s.ExportState().AppendBinary(nil))
					if err != nil {
						t.Fatal(err)
					}
					var r *rand.Rand
					if sample {
						r = rand.New(rand.NewSource(seed))
					}
					s, err = core.ResumeStreamer(pol.p, pol.opts, st, r)
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range tr[half:] {
						s.Push(p)
					}
					return subsequenceIndices(t, tr, s.Snapshot())
				})
			}
		}
	}
	return out
}

func goldenStreamer(t *testing.T, p *rl.Policy, opts core.Options, sample bool, seed int64) *core.Streamer {
	t.Helper()
	var r *rand.Rand
	if sample {
		r = rand.New(rand.NewSource(seed))
	}
	s, err := core.NewStreamer(p, goldenW, opts, sample, r)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func writeKept(h hash.Hash, kept []int) {
	for i, ix := range kept {
		if i > 0 {
			h.Write([]byte{' '})
		}
		fmt.Fprint(h, ix)
	}
	h.Write([]byte{'\n'})
}
