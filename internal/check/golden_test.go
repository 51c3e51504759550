package check

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rlts"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/nn"
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
// pretrained policy (online, plus), a seeded untrained RLTS-Skip (J=2)
// policy (skip), or a seeded untrained RLTS++ policy with J=0
// (plusplus) or J=2 (skip++); path is core.Simplify (simplify), one
// core.BatchEngine run over all three trajectories with item i sampling
// from seed 100+i as the other paths do (batch), a Streamer fed the
// whole trajectory (stream), or a Streamer exported, re-encoded and
// resumed at the midpoint (resume). For the embedded policies,
// fastprobs hashes the raw float64 bits of the masked softmax of
// nn.Network.ForwardBounded's logits over every state core.TraceGreedy
// visits, which pins the fused arithmetic itself. Every batch row must
// equal its simplify row.
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
		{"online/DAD/greedy/batch", "9d785d3292ef9174051dc6f1ed237f2f4b344318a93cf5f42dabb7f987af8f6e"},
		{"online/DAD/greedy/fastprobs", "3394ce8706290f30df961f00c0f8d04c9d9e0cd8a8dbc6f6136a23d1f9580824"},
		{"online/DAD/sampled/batch", "4e7f72c997956699eaae08d54cd84f98c025c2575837af7a0435de349859dffc"},
		{"online/PED/greedy/batch", "b8a85b248c5097e0bcb99ddbc7239881fdbfb7ad8d83112e441d266be883cc5b"},
		{"online/PED/greedy/fastprobs", "cf6b69ce5e4a0b19bba397fa653f4a214c95ff72a41e425973c04d62e30f7ed8"},
		{"online/PED/sampled/batch", "8700219cf9a1244294e5f9f825525e9454129b4edbdb2700f805a14c3dcea096"},
		{"online/SAD/greedy/batch", "47bfae6b40e9bfca7e477b4e6f966edc19e8f31f2b556024b059a134fcd1fe65"},
		{"online/SAD/greedy/fastprobs", "eeaba9e783494f19d1a7dbce39e051a3b29c6b6257d53233a0b11b76557c9129"},
		{"online/SAD/sampled/batch", "2decaad061a464a021d23e32c884a13cfe0c8887d5cd02b692286e1685569b21"},
		{"online/SED/greedy/batch", "a733b62d3849a2e493cf46d584aabbfdd61caa5d8190cce4253f226141c4d18d"},
		{"online/SED/greedy/fastprobs", "cbe1e218c8e1411e58601c66d1da7b5d4f93e8d0d0ce83beae43baa495815c37"},
		{"online/SED/sampled/batch", "a8501f9ea4e5b998021cbcaae083ed14c534c7d0e639f1d6182f2b8afa02d262"},
		{"plus/DAD/greedy/batch", "f7fffad0797d9715ea6043bb647b5107fffaa83c25cb3205615b69ca929e9cd4"},
		{"plus/DAD/greedy/fastprobs", "1d1bd124a0d9904220a55e7796feb2703ba45358117edfee6ff86fe0e7ce6bfb"},
		{"plus/DAD/sampled/batch", "2c2f99b3268c921302aa2c47a2178ad3ad3beb6e7fb108c94bda63bf9fb570ea"},
		{"plus/PED/greedy/batch", "64b127e95469bf430e61a523de501212c4f23e67b1a4231434182212fc2156a1"},
		{"plus/PED/greedy/fastprobs", "01fb3a182eab2602759ccb4138b44d5e727e10d3649449e4305d9bfd5812b2bd"},
		{"plus/PED/sampled/batch", "7ae73ebde5639a52484c401355da621588829520a3faf6483d5ceda49555a21f"},
		{"plus/SAD/greedy/batch", "52203a69ed9d59fd833aeaf0d0dab70812bec729b96fa409a5242c36ca2eb298"},
		{"plus/SAD/greedy/fastprobs", "bb14b3054458dd77a514832533405647b4754e5b7deee176e899cb48dc4c4635"},
		{"plus/SAD/sampled/batch", "1b6ae4cb35ca4831be70518db2767dbb43c9a5d3f7e9be453c2272719c9a7c94"},
		{"plus/SED/greedy/batch", "d5093808f71ac218c9972ee36cbd39b4ad2366f2caf2afdc9ba9d2796448ed95"},
		{"plus/SED/greedy/fastprobs", "bcf3ce9eb5965123c754ebfbf5d8e958d9800c31afc42f6d092d0fed2dd5a736"},
		{"plus/SED/sampled/batch", "1c82d02eaf40d7055ff5c76330abd43e5f5031f755e2e0f883fbe1eb7e81d9f8"},
		{"plusplus/DAD/greedy/batch", "f14c5888abf154aa04b3856d8089836655e33add77e223be77c892ea582f8331"},
		{"plusplus/DAD/greedy/simplify", "f14c5888abf154aa04b3856d8089836655e33add77e223be77c892ea582f8331"},
		{"plusplus/DAD/sampled/batch", "f314cd38d854744d8d9923036bf274b50ba87163a05031becf438a990b297329"},
		{"plusplus/DAD/sampled/simplify", "f314cd38d854744d8d9923036bf274b50ba87163a05031becf438a990b297329"},
		{"plusplus/PED/greedy/batch", "514bf3172ddb6f6bf61f6667ef3fdcecebbd21a6be76a12cdbef6bb684437142"},
		{"plusplus/PED/greedy/simplify", "514bf3172ddb6f6bf61f6667ef3fdcecebbd21a6be76a12cdbef6bb684437142"},
		{"plusplus/PED/sampled/batch", "2544960adba6026993bcc09caca9e52e6274f442f06c1bf164e450fa41e925d5"},
		{"plusplus/PED/sampled/simplify", "2544960adba6026993bcc09caca9e52e6274f442f06c1bf164e450fa41e925d5"},
		{"plusplus/SAD/greedy/batch", "a07a78bdc1d8bc5a414053d5f2def3d91fb741036c4d0ebef517c1c0a6cc3e0a"},
		{"plusplus/SAD/greedy/simplify", "a07a78bdc1d8bc5a414053d5f2def3d91fb741036c4d0ebef517c1c0a6cc3e0a"},
		{"plusplus/SAD/sampled/batch", "864d4a2a2719278433e8fc3512bdd15fbbd8f2537092fd4d9c2eed2205eecbb9"},
		{"plusplus/SAD/sampled/simplify", "864d4a2a2719278433e8fc3512bdd15fbbd8f2537092fd4d9c2eed2205eecbb9"},
		{"plusplus/SED/greedy/batch", "72bf9864b584d90dbc8ec1a08231ec70067d0fc99043c217b5cd39641b3fe0dd"},
		{"plusplus/SED/greedy/simplify", "72bf9864b584d90dbc8ec1a08231ec70067d0fc99043c217b5cd39641b3fe0dd"},
		{"plusplus/SED/sampled/batch", "c1cc3c39a90b2d4487f44c968e84f2c1b7a409997189fba73e08374be1696ece"},
		{"plusplus/SED/sampled/simplify", "c1cc3c39a90b2d4487f44c968e84f2c1b7a409997189fba73e08374be1696ece"},
		{"skip++/DAD/greedy/batch", "48e591d773e7f5e0a3800f5b7098c1679cd35c8b463d0458f07ae188ef2b8d92"},
		{"skip++/DAD/greedy/simplify", "48e591d773e7f5e0a3800f5b7098c1679cd35c8b463d0458f07ae188ef2b8d92"},
		{"skip++/DAD/sampled/batch", "0c3e321ad1acfcadbb3f68e5aca193251c279662c00d3ecbab2e79e1b832376d"},
		{"skip++/DAD/sampled/simplify", "0c3e321ad1acfcadbb3f68e5aca193251c279662c00d3ecbab2e79e1b832376d"},
		{"skip++/PED/greedy/batch", "40e091af336257d59350863ec4d5e6ad61dede8ae844198a79dff1623fa4c7b5"},
		{"skip++/PED/greedy/simplify", "40e091af336257d59350863ec4d5e6ad61dede8ae844198a79dff1623fa4c7b5"},
		{"skip++/PED/sampled/batch", "aa42e63e5203dc3d15c01f374e77ecae0c5a1ef19398f5984dee15e94a969936"},
		{"skip++/PED/sampled/simplify", "aa42e63e5203dc3d15c01f374e77ecae0c5a1ef19398f5984dee15e94a969936"},
		{"skip++/SAD/greedy/batch", "637c257bcdf9af11a246d681de3bf98743ecd4381885e173ba801d468b74bb7a"},
		{"skip++/SAD/greedy/simplify", "637c257bcdf9af11a246d681de3bf98743ecd4381885e173ba801d468b74bb7a"},
		{"skip++/SAD/sampled/batch", "842888aca2aa03e5ea325e07ae18cec50e8cf198e85c1482d03b0888ee525062"},
		{"skip++/SAD/sampled/simplify", "842888aca2aa03e5ea325e07ae18cec50e8cf198e85c1482d03b0888ee525062"},
		{"skip++/SED/greedy/batch", "ccb216720e2452a7cfbeaa04a65c074d522a9fe5fe2de219d6e9bfde519db9ad"},
		{"skip++/SED/greedy/simplify", "ccb216720e2452a7cfbeaa04a65c074d522a9fe5fe2de219d6e9bfde519db9ad"},
		{"skip++/SED/sampled/batch", "e9ec688f8b9f3728c155704b7da35f4f38c8d97bfd1c99c3ba60d72bd761a55a"},
		{"skip++/SED/sampled/simplify", "e9ec688f8b9f3728c155704b7da35f4f38c8d97bfd1c99c3ba60d72bd761a55a"},
	}
	got := goldenDigests(t)
	if len(got) != len(tests) {
		t.Errorf("%d digests computed, %d expected", len(got), len(tests))
	}
	for name, d := range got {
		if seq, ok := strings.CutSuffix(name, "/batch"); ok && d != got[seq+"/simplify"] {
			t.Errorf("%s digest %s differs from %s/simplify %s", name, d, seq, got[seq+"/simplify"])
		}
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
	addAll := func(name string, kept [][]int) {
		h := sha256.New()
		for _, k := range kept {
			writeKept(h, k)
		}
		out[name] = hex.EncodeToString(h.Sum(nil))
	}
	for _, m := range errm.Measures {
		for _, v := range []rlts.Variant{rlts.Online, rlts.Plus} {
			pp, err := pretrained.Load(m, v)
			if err != nil {
				t.Fatal(err)
			}
			tr := pp.Internal()
			prefix := fmt.Sprintf("%s/%s/greedy/", goldenVariantName(v), m)
			h := sha256.New()
			var word [8]byte
			for _, t2 := range trs {
				dt, err := core.TraceGreedy(tr.Policy, t2, goldenW, tr.Opts)
				if err != nil {
					t.Fatal(err)
				}
				for k := range dt.Actions {
					state := dt.States[k*dt.StateSize : (k+1)*dt.StateSize]
					logits, _ := tr.Policy.Net.ForwardBounded(state)
					for _, p := range nn.MaskedSoftmaxInto(make([]float64, len(logits)), logits, dt.Masks[k]) {
						binary.LittleEndian.PutUint64(word[:], math.Float64bits(p))
						h.Write(word[:])
					}
				}
			}
			out[prefix+"fastprobs"] = hex.EncodeToString(h.Sum(nil))
		}
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
				pols = append(pols, policy{goldenVariantName(v), tr.Policy, tr.Opts, v == rlts.Online})
			}
			skip := core.Options{Measure: m, Variant: core.Online, K: 3, J: 2}
			pols = append(pols, policy{"skip", checkPolicy(t, skip, 77+int64(m)), skip, true})

			for _, pp := range []struct {
				name string
				j    int
				seed int64
			}{{"plusplus", 0, 91}, {"skip++", 2, 97}} {
				opts := core.Options{Measure: m, Variant: core.PlusPlus, K: 3, J: pp.j}
				pols = append(pols, policy{pp.name, checkPolicy(t, opts, pp.seed+int64(m)), opts, false})
			}

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
				if pol.name != "skip" {
					addAll(prefix+"batch", goldenBatch(t, pol.p, pol.opts, sample, trs))
				}
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

func goldenVariantName(v rlts.Variant) string {
	if v == rlts.Plus {
		return "plus"
	}
	return "online"
}

// goldenBatch simplifies every trajectory through one BatchEngine run,
// giving item i the sampling seed 100+i the per-trajectory paths use.
func goldenBatch(t *testing.T, p *rl.Policy, opts core.Options, sample bool, trs []traj.Trajectory) [][]int {
	t.Helper()
	eng, err := core.NewBatchEngine(p, opts, sample)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]core.BatchItem, len(trs))
	for i, tr := range trs {
		items[i] = core.BatchItem{T: tr, W: goldenW}
		if sample {
			items[i].R = rand.New(rand.NewSource(int64(100 + i)))
		}
	}
	kept := make([][]int, len(trs))
	for i, res := range eng.RunCtx(context.Background(), items) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		kept[i] = res.Kept
	}
	return kept
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
