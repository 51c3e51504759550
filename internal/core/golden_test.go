package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rlts/internal/errm"
	"rlts/internal/rl"
)

// Golden fixtures pin the bytes of formats that outlive a process. A
// fixture is written once and never regenerated: a change that alters
// one of these encodings, or the buffer layout a streamer exports, fails
// here by name instead of quarantining the sessions already on disk.

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenSkipStreamer is the streamer behind testdata/streamer_state_v2.bin:
// a sampled RLTS-Skip (J=2) streamer over a seeded policy, fed the first
// goldenStateCut points of a seeded Geolife trajectory. At that cut the
// last decision was a skip-2, so the export carries a pending skip, and
// every decision so far consumed one RNG draw.
const goldenStateCut = 91

func goldenSkipStreamer(t *testing.T) (*Streamer, *rl.Policy, Options) {
	t.Helper()
	opts := Options{Measure: errm.SED, Variant: Online, K: 3, J: 2}
	p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 8, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamer(p, 12, opts, true, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range testTraj(5, 200)[:goldenStateCut] {
		s.Push(pt)
	}
	return s, p, opts
}

// TestGoldenStreamerStateV2 decodes the committed StreamerState v2 blob,
// re-encodes it and requires the identical bytes; it then requires that
// resuming the blob and exporting again, and rerunning the recipe that
// wrote it, both reproduce those bytes.
func TestGoldenStreamerStateV2(t *testing.T) {
	blob := readGolden(t, "streamer_state_v2.bin")
	st, err := DecodeStreamerState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if st.Skip == 0 || st.Draws == 0 || !st.Sample {
		t.Fatalf("fixture lost what it pins: skip %d, draws %d, sample %v", st.Skip, st.Draws, st.Sample)
	}
	if got := st.AppendBinary(nil); !bytes.Equal(got, blob) {
		t.Fatalf("re-encoded state differs from the fixture (%d vs %d bytes)", len(got), len(blob))
	}

	s, p, opts := goldenSkipStreamer(t)
	if got := s.ExportState().AppendBinary(nil); !bytes.Equal(got, blob) {
		t.Fatalf("recipe no longer reproduces the fixture (%d vs %d bytes)", len(got), len(blob))
	}
	resumed, err := ResumeStreamer(p, opts, st, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.ExportState().AppendBinary(nil); !bytes.Equal(got, blob) {
		t.Fatal("resume + export does not reproduce the fixture")
	}
}

// TestGoldenTrain pins training over the real MDPs: the SHA-256 of the
// Trained.Save bytes after Train on a small seeded Geolife dataset, one
// row per variant and measure, with one rollout worker. Training runs
// every environment step with rewards, so a change to a state, a value,
// a mask or a reward anywhere in the six MDPs moves a row. The digests
// are exact float64 consequences of the forward and backward passes and
// are pinned on amd64, whose compiler does not fuse multiply-adds.
func TestGoldenTrain(t *testing.T) {
	tests := []struct {
		Name   string
		Expect string
	}{
		{"RLTS/DAD", "99e62d2afc9096afcb42eef2c4e434d03bb9adf5ecb21b85b2d4b7f5cd0548b3"},
		{"RLTS/PED", "48eb264e2303a436cc55e240b5971f2a1edb09e2b295942615308730b1a03f58"},
		{"RLTS/SAD", "95de143e0c5a0160851546e971c802ba44e0cb0706c8acaa2aff373b4b8c11f6"},
		{"RLTS/SED", "c1800e5ee1d5d975d72e0a2364570869382834a1ebb3c4c53e7c3b5fe2464961"},
		{"RLTS-Skip/DAD", "0e7b8a7a6ec5a15e6d35a2942361dc4045c2f7390073c4f6aa645cc863ccdfc9"},
		{"RLTS-Skip/PED", "69a49dbc84637c5371e12704e57506e868f3c4bc564f2033d154031805495ec9"},
		{"RLTS-Skip/SAD", "d3a7f2b96f65e020d537703188706258d73140b0f0cb81aaa160550b67112600"},
		{"RLTS-Skip/SED", "43f8d4ece03c9382773020aa1a5ff7c9d3e4e501f4c396cc65bdee8c52612aec"},
		{"RLTS+/DAD", "e26957fa465281b7b06a1d0ae95f58bf86f65b8ca469f8df0359013ba2795206"},
		{"RLTS+/PED", "799503699a12183ce1205193b20564ef71118a8ad725348908604e07ebd2a990"},
		{"RLTS+/SAD", "d1a007ee65fb2402f62c9681e379e5f13c293b6be7aaec86c020a889ed88de8f"},
		{"RLTS+/SED", "5e85889c412874c5c434fd7ad3847194b7ec74d795bc4e2639f52bfda9711777"},
		{"RLTS-Skip+/DAD", "f63a1c8202f217c36e5ab0fc7eca5a8b743dbe94bc14086d065db6b9ecb09fd0"},
		{"RLTS-Skip+/PED", "022845fe76f1e780d5a7c010f17a039c8146a4cd918d5f99770a47a1f33862b6"},
		{"RLTS-Skip+/SAD", "7cd6502f9ddd1d8c5d63b610e2faa04e76c1eec9d9c4eba50bd85ee378d13e94"},
		{"RLTS-Skip+/SED", "c33620bee91560f9f2447a8664d1097f665d7ecaad3c4a2fc3f92838d048f347"},
		{"RLTS++/DAD", "6f9444509b4bbf9ccb84585660fa841782911242b58d34877c7d9510c9122396"},
		{"RLTS++/PED", "100ae849b4deaa81b8b459eeb22800957e8b024f6afc5b82620b6d53ee184895"},
		{"RLTS++/SAD", "df4d9914de5727b01a894de54c55eba0cda59214b88edf9df84487d72acbac48"},
		{"RLTS++/SED", "bbdfdd9efaf1a6cc29125bfbcc4237e86ec0d7f429a50ecdb2c6805e418d307b"},
		{"RLTS-Skip++/DAD", "b2727a39cefa3c623111a539cb8ce8976d0c9967bc55fa611c7bacd371e61bda"},
		{"RLTS-Skip++/PED", "a8bb274c8839310e0bab67e31c9c25954dc8e7aec3109c92b0d048ffd11d1631"},
		{"RLTS-Skip++/SAD", "71ca09edabb39821cc6a227279ae12d82d1d2d1397c6be3496050915d90c5d42"},
		{"RLTS-Skip++/SED", "558c477bd4f0da2fd165f9bcdd741259ec467acb2a05fd4abd9b047a8ff910c1"},
	}
	got := map[string]string{}
	for _, v := range []Variant{Online, Plus, PlusPlus} {
		for _, j := range []int{0, 2} {
			for _, m := range errm.Measures {
				opts := DefaultOptions(m, v)
				opts.J = j
				to := quickTrainOptions()
				to.RL.Workers = 1
				tr, _, err := Train(smallDataset(3, 8, 70), opts, to)
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				if err := tr.Save(h); err != nil {
					t.Fatal(err)
				}
				got[opts.Name()+"/"+m.String()] = hex.EncodeToString(h.Sum(nil))
			}
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
