package traj

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"rlts/internal/geo"
)

// goldenRepairer is the recipe behind testdata/repair_state_v1.bin: a
// gated, averaging repairer fed a smooth track carrying a swapped pair,
// a re-sent fix, a far outlier and, at the cut, a duplicate group that
// is still open while the reorder window holds later fixes.
func goldenRepairer() *Repairer {
	rp := NewRepairer(RepairConfig{Window: 4, MaxSpeed: 50, DupRadius: 3, AverageDups: true})
	var fixes []geo.Point
	for i := 0; i < 40; i++ {
		ts := float64(i)
		fixes = append(fixes, geo.Pt(10*ts+3*math.Sin(ts/4), 5*math.Cos(ts/7), ts))
	}
	fixes[12], fixes[13] = fixes[13], fixes[12]
	fixes[25].X += 1e4
	dup := fixes[35]
	dup.X += 0.5
	fixes = append(fixes[:36], append([]geo.Point{dup}, fixes[36:]...)...)
	fixes = append(fixes[:20], append([]geo.Point{fixes[19]}, fixes[20:]...)...)
	for _, p := range fixes {
		rp.Push(p)
	}
	return rp
}

// TestGoldenRepairState decodes the committed standalone RepairState,
// re-encodes it and requires the identical bytes, and requires that the
// recipe which wrote it, and resuming the decoded state and exporting
// again, both reproduce those bytes.
func TestGoldenRepairState(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "repair_state_v1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeRepairState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Pending) == 0 || !st.HasHeld || st.HeldN < 2 {
		t.Fatalf("fixture lost what it pins: %d pending, held %v (n=%d)", len(st.Pending), st.HasHeld, st.HeldN)
	}
	if got := st.AppendBinary(nil); !bytes.Equal(got, blob) {
		t.Fatalf("re-encoded state differs from the fixture (%d vs %d bytes)", len(got), len(blob))
	}
	if got := goldenRepairer().ExportState().AppendBinary(nil); !bytes.Equal(got, blob) {
		t.Fatalf("recipe no longer reproduces the fixture (%d vs %d bytes)", len(got), len(blob))
	}
	rp, err := ResumeRepairer(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := rp.ExportState().AppendBinary(nil); !bytes.Equal(got, blob) {
		t.Fatal("resume + export does not reproduce the fixture")
	}
}
