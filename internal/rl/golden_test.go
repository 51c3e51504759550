package rl_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rlts/internal/faultinject"
	"rlts/internal/rl"
)

// goldenCheckpoint is the recipe behind testdata/checkpoint_v1.json: the
// stair-environment run of the resume tests, serial, killed after its
// third batch, so the checkpoint carries a best snapshot, Adam moments
// and initialized batch-norm statistics.
func goldenCheckpoint(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "train.ckpt")
	cfg := stairConfig()
	cfg.Checkpoint = path
	cfg.Workers = 1
	cfg.OnBatch = faultinject.CrashAfter(3)
	if _, err := rl.TrainSeeded(stairEnvs(4), cfg); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("want ErrCrash, got %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenCheckpoint decodes the committed training checkpoint,
// re-encodes it and requires the identical bytes, and requires that the
// recipe which wrote it still reproduces it.
func TestGoldenCheckpoint(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := rl.LoadCheckpoint(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Batch != 3 || ck.Best == nil || ck.Adam.T == 0 {
		t.Fatalf("fixture lost what it pins: batch %d, best %v, adam t %d", ck.Batch, ck.Best != nil, ck.Adam.T)
	}
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), blob) {
		t.Fatalf("re-encoded checkpoint differs from the fixture (%d vs %d bytes)", buf.Len(), len(blob))
	}
	if got := goldenCheckpoint(t); !bytes.Equal(got, blob) {
		t.Fatalf("recipe no longer reproduces the fixture (%d vs %d bytes)", len(got), len(blob))
	}
}
