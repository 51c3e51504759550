package server

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rlts/internal/core"
	"rlts/internal/gen"
	"rlts/internal/geo"
	"rlts/internal/traj"
)

// goldenSession is the recipe behind the committed spill envelopes: a
// sampled RLTS-Skip session over the seeded test policy, fed a seeded
// Geolife trajectory. With repair set, the raw fixes carry a swapped
// pair, a re-sent fix and a far outlier and pass through a streaming
// repairer first, whose window still holds fixes at the cut.
func goldenSession(t *testing.T, repair bool) *sessionRecord {
	t.Helper()
	const seed = 99
	tr := onlineTrainedJ(t, 2)
	s, err := core.NewStreamer(tr.Policy, 8, tr.Opts, true, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	pts := []geo.Point(gen.New(gen.Geolife(), 3).Trajectory(60))
	rec := &sessionRecord{ID: "0123456789abcdef", Key: "rlts-skip/sed", Seed: seed, LastActive: 1_700_000_000_000_000_000}
	if !repair {
		for _, p := range pts {
			s.Push(p)
		}
		rec.State = s.ExportState()
		return rec
	}
	raw := append([]geo.Point(nil), pts...)
	raw[10], raw[11] = raw[11], raw[10]
	raw[30].X += 1e5
	raw = append(raw[:21], raw[20:]...) // re-send fix 20
	rp := traj.NewRepairer(traj.RepairConfig{Window: 4, MaxSpeed: 50})
	for _, p := range raw {
		for _, q := range rp.Push(p) {
			s.Push(q)
		}
	}
	rec.State = s.ExportState()
	rec.Repair = rp.ExportState()
	return rec
}

// TestGoldenSpillEnvelopeV2 decodes each committed v2 spill envelope,
// re-encodes it and requires the identical bytes, and requires that the
// recipe which wrote it still reproduces it.
func TestGoldenSpillEnvelopeV2(t *testing.T) {
	for _, tc := range []struct {
		file   string
		repair bool
	}{
		{"spill_v2.sess", false},
		{"spill_v2_repair.sess", true},
	} {
		t.Run(tc.file, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			rec, err := decodeSession(blob)
			if err != nil {
				t.Fatal(err)
			}
			if (rec.Repair != nil) != tc.repair {
				t.Fatalf("repair section present = %v, want %v", rec.Repair != nil, tc.repair)
			}
			if tc.repair && len(rec.Repair.Pending) == 0 {
				t.Fatal("fixture lost its pending repair window")
			}
			if got := encodeSession(rec); !bytes.Equal(got, blob) {
				t.Fatalf("re-encoded envelope differs from the fixture (%d vs %d bytes)", len(got), len(blob))
			}
			if got := encodeSession(goldenSession(t, tc.repair)); !bytes.Equal(got, blob) {
				t.Fatalf("recipe no longer reproduces the fixture (%d vs %d bytes)", len(got), len(blob))
			}
		})
	}
}
