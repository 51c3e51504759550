package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"rlts/internal/errm"
	"rlts/internal/faultinject"
)

func trainedBytes(t *testing.T, tr *Trained) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeTrainBitIdentical is the end-to-end form of the checkpoint
// guarantee: kill a core.Train run at a batch boundary, resume it from
// the checkpoint with the same dataset and options, and the final saved
// policy is byte-identical to the uninterrupted run's.
func TestResumeTrainBitIdentical(t *testing.T) {
	ds := smallDataset(3, 6, 60)
	opts := DefaultOptions(errm.SED, Online)
	to := quickTrainOptions()
	to.RL.Epochs = 2 // 6 trajectories x 2 epochs = 12 batches

	base, baseRes, err := Train(ds, opts, to)
	if err != nil {
		t.Fatal(err)
	}
	want := trainedBytes(t, base)

	for _, crashAt := range []int{2, 7} {
		ckpt := filepath.Join(t.TempDir(), "train.ckpt")
		crashed := to
		crashed.RL.Checkpoint = ckpt
		crashed.RL.OnBatch = faultinject.CrashAfter(crashAt)
		if _, _, err := Train(ds, opts, crashed); !errors.Is(err, faultinject.ErrCrash) {
			t.Fatalf("crashAt=%d: want ErrCrash, got %v", crashAt, err)
		}

		resumeTo := to
		resumeTo.RL.Checkpoint = ckpt
		resumed, res, err := ResumeTrain(ds, opts, resumeTo)
		if err != nil {
			t.Fatalf("crashAt=%d: resume: %v", crashAt, err)
		}
		if got := trainedBytes(t, resumed); !bytes.Equal(got, want) {
			t.Errorf("crashAt=%d: resumed policy differs from uninterrupted run", crashAt)
		}
		if res.EpisodesRun != baseRes.EpisodesRun || res.StepsRun != baseRes.StepsRun {
			t.Errorf("crashAt=%d: counters (%d, %d) != uninterrupted (%d, %d)",
				crashAt, res.EpisodesRun, res.StepsRun, baseRes.EpisodesRun, baseRes.StepsRun)
		}
	}
}

// TestResumeTrainValidation: resume without a checkpoint path, with a
// missing file, or against mismatched options must fail up front.
func TestResumeTrainValidation(t *testing.T) {
	ds := smallDataset(3, 4, 50)
	opts := DefaultOptions(errm.SED, Online)
	to := quickTrainOptions()
	if _, _, err := ResumeTrain(ds, opts, to); err == nil {
		t.Error("resume without a checkpoint path accepted")
	}
	to.RL.Checkpoint = filepath.Join(t.TempDir(), "missing.ckpt")
	if _, _, err := ResumeTrain(ds, opts, to); err == nil {
		t.Error("resume from a missing checkpoint accepted")
	}

	ckpt := filepath.Join(t.TempDir(), "train.ckpt")
	crashed := quickTrainOptions()
	crashed.RL.Checkpoint = ckpt
	crashed.RL.OnBatch = faultinject.CrashAfter(1)
	if _, _, err := Train(ds, opts, crashed); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatal(err)
	}
	// Options with a different state/action shape cannot adopt the policy.
	other := DefaultOptions(errm.SED, Online)
	other.K = 5
	otherTo := quickTrainOptions()
	otherTo.RL.Checkpoint = ckpt
	if _, _, err := ResumeTrain(ds, other, otherTo); err == nil {
		t.Error("resume under a different state size accepted")
	}
}

// TestSimplifyCtxCanceled: the context plumbed through the simplification
// entry points must abort the scan.
func TestSimplifyCtxCanceled(t *testing.T) {
	ds := smallDataset(1, 5, 60)
	opts := DefaultOptions(errm.SED, Online)
	tr, _, err := Train(ds, opts, quickTrainOptions())
	if err != nil {
		t.Fatal(err)
	}
	target := smallDataset(42, 1, 200)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.SimplifyGreedyCtx(ctx, target, 20); !errors.Is(err, context.Canceled) {
		t.Errorf("SimplifyGreedyCtx on canceled context: %v", err)
	}
	if _, err := SimplifyCtx(ctx, tr.Policy, target, 20, tr.Opts, true, rand.New(rand.NewSource(0))); !errors.Is(err, context.Canceled) {
		t.Errorf("SimplifyCtx on canceled context: %v", err)
	}
	// A live context changes nothing.
	kept, err := tr.SimplifyGreedyCtx(context.Background(), target, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) > 20 {
		t.Errorf("kept %d > 20", len(kept))
	}
}
