package rl

import "math/rand"

// TrainSeeded trains a fresh policy whose weights are drawn from
// cfg.Seed, as core.Train seeds its networks.
func TrainSeeded(envs []Env, cfg TrainConfig) (*TrainResult, error) {
	cfg.fillDefaults()
	p, err := NewPolicy(envs[0].StateSize(), envs[0].NumActions(), cfg.Hidden, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	return TrainPolicy(p, envs, cfg)
}
