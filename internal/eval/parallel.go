package eval

import (
	"math"
	"math/rand"
	"sync"

	"rlts/internal/core"
	"rlts/internal/traj"
)

// RLTSAlgorithmConcurrent wraps a trained policy as a concurrency-safe
// Algorithm: each Run call derives its own sampling RNG from the base
// seed and the trajectory's identity, so results are deterministic
// regardless of scheduling. The policy network itself is read-only at
// inference time except for layer scratch buffers, so each goroutine gets
// its own clone.
func RLTSAlgorithmConcurrent(tr *core.Trained, seed int64) Algorithm {
	pool := sync.Pool{New: func() interface{} {
		return &core.Trained{Opts: tr.Opts, Policy: tr.Policy.Clone()}
	}}
	return Algorithm{
		Name: tr.Opts.Name(),
		Run: func(t traj.Trajectory, w int) ([]int, error) {
			// Derive the sampling RNG from the trajectory identity so the
			// result does not depend on goroutine scheduling.
			r := rand.New(rand.NewSource(trajSeed(seed, t)))
			c := pool.Get().(*core.Trained)
			defer pool.Put(c)
			return c.Simplify(t, w, r)
		},
	}
}

// trajSeed derives a deterministic per-trajectory sampling seed from the
// base seed and the trajectory's identity (length plus first/last
// coordinates). The coordinates enter through math.Float64bits: a direct
// int64(x) conversion is implementation-defined once x leaves the int64
// range, and the adversarial ±6e307 coordinates the differential harness
// generates do exactly that — Float64bits is total, so the derived
// stream is the same on every platform and for every value.
func trajSeed(seed int64, t traj.Trajectory) int64 {
	h := seed
	if len(t) > 0 {
		h = h*31 + int64(len(t))
		h = h*31 + int64(math.Float64bits(t[0].X))
		h = h*31 + int64(math.Float64bits(t[len(t)-1].Y))
	}
	return h
}
