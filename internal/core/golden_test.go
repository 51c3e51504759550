package core

import (
	"bytes"
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
