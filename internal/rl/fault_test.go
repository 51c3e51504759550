// Fault-tolerance tests: checkpoint/resume determinism and divergence
// guards, exercised through the faultinject harness. They live in an
// external test package because faultinject imports rl.
package rl_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"rlts/internal/faultinject"
	"rlts/internal/rl"
)

// stairEnv is a deterministic environment: Reset fully determines the
// episode given the action sequence, so a resumed run sees the exact
// state/reward stream the uninterrupted run saw. The state varies with
// the step and the running action sum (exercising batch-norm statistics),
// and the reward favors matching the step parity.
type stairEnv struct {
	n     int
	phase float64
	step  int
	acc   float64
	state [2]float64
}

func (s *stairEnv) mk() []float64 {
	s.state[0] = math.Sin(s.phase + 0.7*float64(s.step))
	s.state[1] = s.acc / float64(s.n)
	return s.state[:]
}

func (s *stairEnv) Reset() ([]float64, []bool, bool) {
	s.step, s.acc = 0, 0
	return s.mk(), []bool{true, true}, false
}

func (s *stairEnv) Step(a int) ([]float64, []bool, float64, bool) {
	r := 0.0
	if (s.step+a)%2 == 0 {
		r = 1
	}
	s.acc += float64(a)
	s.step++
	return s.mk(), []bool{true, true}, r, s.step >= s.n
}

func (s *stairEnv) StateSize() int  { return 2 }
func (s *stairEnv) NumActions() int { return 2 }

// stairEnvs builds k fresh environments; called separately for every run
// so no state leaks between the runs under comparison.
func stairEnvs(k int) []rl.Env {
	envs := make([]rl.Env, k)
	for i := range envs {
		envs[i] = &stairEnv{n: 6 + i, phase: float64(i)}
	}
	return envs
}

func stairConfig() rl.TrainConfig {
	cfg := rl.DefaultTrainConfig()
	cfg.Episodes = 4
	cfg.Epochs = 3
	cfg.Hidden = 6
	cfg.Seed = 11
	cfg.LearningRate = 1e-2
	return cfg
}

func policyBytes(t *testing.T, p *rl.Policy) []byte {
	t.Helper()
	if p == nil {
		t.Fatal("nil policy")
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeBitIdentical is the headline guarantee: a run killed at any
// batch boundary and resumed from its checkpoint ends with the
// bit-identical policy of the uninterrupted run — even when the resumed
// run uses a different worker count.
func TestResumeBitIdentical(t *testing.T) {
	const numEnvs = 4 // 4 envs x 3 epochs = 12 batches
	base, err := rl.TrainSeeded(stairEnvs(numEnvs), stairConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantFinal := policyBytes(t, base.Final)
	wantBest := policyBytes(t, base.Best)

	for _, crashAt := range []int{1, 3, 7, 11, 12} {
		for _, resumeWorkers := range []int{1, 3} {
			ckpt := filepath.Join(t.TempDir(), "train.ckpt")

			cfg := stairConfig()
			cfg.Checkpoint = ckpt
			cfg.Workers = 1
			cfg.OnBatch = faultinject.CrashAfter(crashAt)
			_, err := rl.TrainSeeded(stairEnvs(numEnvs), cfg)
			if !errors.Is(err, faultinject.ErrCrash) {
				t.Fatalf("crashAt=%d: want ErrCrash, got %v", crashAt, err)
			}

			ck, err := rl.ReadCheckpointFile(ckpt)
			if err != nil {
				t.Fatalf("crashAt=%d: read checkpoint: %v", crashAt, err)
			}
			if ck.Batch != crashAt {
				t.Fatalf("crashAt=%d: checkpoint at batch %d", crashAt, ck.Batch)
			}
			cfg2 := stairConfig()
			cfg2.Checkpoint = ckpt
			cfg2.Workers = resumeWorkers
			res, err := rl.ResumePolicy(ck, stairEnvs(numEnvs), cfg2)
			if err != nil {
				t.Fatalf("crashAt=%d: resume: %v", crashAt, err)
			}

			if got := policyBytes(t, res.Final); !bytes.Equal(got, wantFinal) {
				t.Errorf("crashAt=%d workers=%d: resumed final policy differs from uninterrupted run", crashAt, resumeWorkers)
			}
			if got := policyBytes(t, res.Best); !bytes.Equal(got, wantBest) {
				t.Errorf("crashAt=%d workers=%d: resumed best policy differs", crashAt, resumeWorkers)
			}
			if res.BestReward != base.BestReward || res.FinalReward != base.FinalReward {
				t.Errorf("crashAt=%d: rewards (%v, %v) != uninterrupted (%v, %v)",
					crashAt, res.BestReward, res.FinalReward, base.BestReward, base.FinalReward)
			}
			if res.EpisodesRun != base.EpisodesRun || res.StepsRun != base.StepsRun {
				t.Errorf("crashAt=%d: counters (%d, %d) != uninterrupted (%d, %d)",
					crashAt, res.EpisodesRun, res.StepsRun, base.EpisodesRun, base.StepsRun)
			}
		}
	}
}

// TestResumeRejectsMismatchedConfig: resuming under hyper-parameters that
// would diverge from the original run must fail loudly, not silently
// train something else.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "train.ckpt")
	cfg := stairConfig()
	cfg.Checkpoint = ckpt
	cfg.OnBatch = faultinject.CrashAfter(2)
	if _, err := rl.TrainSeeded(stairEnvs(3), cfg); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatal(err)
	}
	ck, err := rl.ReadCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	bad := stairConfig()
	bad.Seed = 999
	if _, err := rl.ResumePolicy(ck, stairEnvs(3), bad); err == nil {
		t.Error("resume with different seed accepted")
	}
	bad = stairConfig()
	bad.LearningRate = 5e-3
	if _, err := rl.ResumePolicy(ck, stairEnvs(3), bad); err == nil {
		t.Error("resume with different learning rate accepted")
	}
	if _, err := rl.ResumePolicy(ck, stairEnvs(1), stairConfig()); err == nil {
		t.Error("resume positioned beyond the environment list accepted")
	}
}

// TestCheckpointRejectsCorruption: a truncated or garbage checkpoint file
// must be refused at load time, never half-restored.
func TestCheckpointRejectsCorruption(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "train.ckpt")
	cfg := stairConfig()
	cfg.Checkpoint = ckpt
	cfg.OnBatch = faultinject.CrashAfter(2)
	if _, err := rl.TrainSeeded(stairEnvs(3), cfg); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, corrupt := range [][]byte{
		raw[:len(raw)/2],
		[]byte("not json"),
		[]byte(`{"version": 999}`),
		{},
	} {
		if err := os.WriteFile(ckpt, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := rl.ReadCheckpointFile(ckpt); err == nil {
			t.Errorf("corrupt checkpoint (%d bytes) accepted", len(corrupt))
		}
	}
}

// TestNaNRewardSkipsBatch: an injected NaN reward must be caught by the
// post-rollout scan — the batch is skipped, the event is reported, and
// the final policy stays finite.
func TestNaNRewardSkipsBatch(t *testing.T) {
	envs := stairEnvs(3)
	poisoned := faultinject.NewEnv(envs[1])
	poisoned.NaNRewardAt = 1
	envs[1] = poisoned

	cfg := stairConfig()
	cfg.Epochs = 2
	res, err := rl.TrainSeeded(envs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Health.Ok() {
		t.Fatal("NaN reward went unnoticed")
	}
	if res.Health.RolloutSkips != 2 { // env 1 poisoned in each of 2 epochs
		t.Errorf("RolloutSkips = %d, want 2", res.Health.RolloutSkips)
	}
	if len(res.Health.Events) == 0 || res.Health.Events[0].Kind != rl.HealthRolloutSkip {
		t.Errorf("events = %+v, want rollout-skip", res.Health.Events)
	}
	if !res.Final.Net.ParamsFinite() {
		t.Error("final policy has non-finite parameters")
	}
}

// TestNaNStateSkipsBatch: a NaN state makes the policy forward pass panic
// inside the rollout worker; the guard must convert that into a skipped
// batch, not a dead process, and keep training the healthy environments.
func TestNaNStateSkipsBatch(t *testing.T) {
	envs := stairEnvs(3)
	poisoned := faultinject.NewEnv(envs[2])
	poisoned.NaNStateAt = 1
	envs[2] = poisoned

	cfg := stairConfig()
	cfg.Epochs = 1
	res, err := rl.TrainSeeded(envs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Health.RolloutSkips != 1 {
		t.Errorf("RolloutSkips = %d, want 1", res.Health.RolloutSkips)
	}
	if !res.Final.Net.ParamsFinite() {
		t.Error("final policy has non-finite parameters")
	}
	// The two healthy environments still trained: the optimizer stepped.
	if res.EpisodesRun != 2*cfg.Episodes {
		t.Errorf("EpisodesRun = %d, want %d", res.EpisodesRun, 2*cfg.Episodes)
	}
}

// TestHealthSurvivesCheckpoint: guard events recorded before a crash must
// come back with the resumed run's report.
func TestHealthSurvivesCheckpoint(t *testing.T) {
	envs := stairEnvs(3)
	poisoned := faultinject.NewEnv(envs[0])
	poisoned.NaNRewardAt = 0
	envs[0] = poisoned

	ckpt := filepath.Join(t.TempDir(), "train.ckpt")
	cfg := stairConfig()
	cfg.Epochs = 1
	cfg.Checkpoint = ckpt
	cfg.OnBatch = faultinject.CrashAfter(2)
	if _, err := rl.TrainSeeded(envs, cfg); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatal("expected injected crash")
	}
	ck, err := rl.ReadCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Health.RolloutSkips != 1 {
		t.Fatalf("checkpointed RolloutSkips = %d, want 1", ck.Health.RolloutSkips)
	}
	cfg2 := stairConfig()
	cfg2.Epochs = 1
	res, err := rl.ResumePolicy(ck, stairEnvs(3), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Health.RolloutSkips != 1 || len(res.Health.Events) != 1 {
		t.Errorf("resumed health = %+v, want the pre-crash event preserved", res.Health)
	}
}
