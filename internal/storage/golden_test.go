package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rlts/internal/gen"
)

// goldenTRJ1 is the recipe behind testdata/trj1.bin: a seeded Geolife
// trajectory snapped to the DefaultPrecision grid by one encode/decode
// pass, then encoded. Snapping first makes the base coordinates grid
// values, so decoding and re-encoding the fixture is byte-stable.
func goldenTRJ1(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, gen.New(gen.Geolife(), 2021).Trajectory(200), DefaultPrecision); err != nil {
		t.Fatal(err)
	}
	snapped, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Encode(&buf, snapped, DefaultPrecision); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTRJ1 decodes the committed TRJ1 encoding, re-encodes it and
// requires the identical bytes, and requires that the recipe which wrote
// it still reproduces it.
func TestGoldenTRJ1(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "trj1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Decode(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 200 {
		t.Fatalf("fixture decodes to %d points, want 200", len(tr))
	}
	var buf bytes.Buffer
	if err := Encode(&buf, tr, DefaultPrecision); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), blob) {
		t.Fatalf("re-encoded trajectory differs from the fixture (%d vs %d bytes)", buf.Len(), len(blob))
	}
	if got := goldenTRJ1(t); !bytes.Equal(got, blob) {
		t.Fatalf("recipe no longer reproduces the fixture (%d vs %d bytes)", len(got), len(blob))
	}
}
