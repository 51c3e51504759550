package rl

import (
	"bytes"
	"math/rand"
	"testing"
)

// CloneEnv makes banditEnv usable by the parallel rollout phase: all its
// state is rebuilt by Reset.
func (b *banditEnv) CloneEnv() Env { return &banditEnv{n: b.n} }

// trainBandit trains a fresh bandit policy with the given worker count and
// returns the serialized final and best policies plus the result stats.
func trainBandit(t *testing.T, workers int) ([]byte, []byte, *TrainResult) {
	t.Helper()
	envs := make([]Env, 30)
	for i := range envs {
		envs[i] = &banditEnv{n: 10}
	}
	cfg := DefaultTrainConfig()
	cfg.Seed = 11
	cfg.LearningRate = 0.05
	cfg.Workers = workers
	res, err := TrainSeeded(envs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fin, best bytes.Buffer
	if err := res.Final.Save(&fin); err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Save(&best); err != nil {
		t.Fatal(err)
	}
	return fin.Bytes(), best.Bytes(), res
}

func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	fin1, best1, res1 := trainBandit(t, 1)
	for _, workers := range []int{2, 8} {
		finN, bestN, resN := trainBandit(t, workers)
		if !bytes.Equal(fin1, finN) {
			t.Errorf("final policy differs between Workers=1 and Workers=%d", workers)
		}
		if !bytes.Equal(best1, bestN) {
			t.Errorf("best policy differs between Workers=1 and Workers=%d", workers)
		}
		if res1.BestReward != resN.BestReward || res1.FinalReward != resN.FinalReward {
			t.Errorf("rewards differ between Workers=1 (%v/%v) and Workers=%d (%v/%v)",
				res1.BestReward, res1.FinalReward, workers, resN.BestReward, resN.FinalReward)
		}
		if res1.EpisodesRun != resN.EpisodesRun || res1.StepsRun != resN.StepsRun {
			t.Errorf("episode counts differ between Workers=1 and Workers=%d", workers)
		}
	}
}

// TestTrainParallelWithoutCloner exercises the serial-rollout fallback: an
// environment that does not implement EnvCloner still trains under
// Workers>1 (rollouts on one goroutine, gradients fanned out) and produces
// the same policy as a fully serial run.
func TestTrainParallelWithoutCloner(t *testing.T) {
	train := func(workers int) []byte {
		r := rand.New(rand.NewSource(77))
		envs := make([]Env, 20)
		for i := range envs {
			envs[i] = &corridorEnv{r: r}
		}
		cfg := DefaultTrainConfig()
		cfg.Seed = 4
		cfg.LearningRate = 0.02
		cfg.Workers = workers
		res, err := TrainSeeded(envs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Final.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(train(1), train(8)) {
		t.Error("non-cloneable env: policy differs between Workers=1 and Workers=8")
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	seen := make(map[int64]bool)
	for ep := uint64(0); ep < 1000; ep++ {
		s := deriveSeed(1, ep)
		if seen[s] {
			t.Fatalf("duplicate derived seed for episode %d", ep)
		}
		seen[s] = true
	}
	if deriveSeed(1, 0) == deriveSeed(2, 0) {
		t.Error("derived seeds collide across master seeds")
	}
}
