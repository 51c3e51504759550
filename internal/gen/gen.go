// Package gen generates synthetic GPS trajectory datasets with the
// statistical character of the paper's three real datasets (Table I):
// Geolife (dense multi-modal outdoor movement), T-Drive (sparsely sampled
// Beijing taxis) and Truck (freight trucks mixing highway hauls and urban
// crawling).
//
// The real datasets are proprietary downloads that are unavailable in this
// offline reproduction. What the simplification algorithms actually consume
// is a stream of (x, y, t) points whose *movement regimes* — straight
// constant-speed runs (droppable almost for free), turns, stops and speed
// changes (expensive to drop) — drive both the error measures and the
// learned policy. The generator reproduces those regimes with a correlated
// random walk whose sampling rate and mean inter-point distance match
// Table I, which preserves the relative behaviour of every algorithm the
// paper compares.
package gen

import (
	"math"
	"math/rand"

	"rlts/internal/geo"
	"rlts/internal/traj"
)

// Regime is one movement mode of the correlated random walk: a speed band
// plus heading-persistence parameters.
type Regime struct {
	Name      string
	MinSpeed  float64 // m/s
	MaxSpeed  float64 // m/s
	HeadingSD float64 // per-step heading jitter (radians)
	TurnProb  float64 // probability of a sharp turn per step
	StopProb  float64 // probability of entering a stop per step
}

// Config describes a synthetic dataset.
type Config struct {
	Name        string
	Regimes     []Regime
	SwitchProb  float64 // probability of switching regime per step
	MinGap      float64 // min sampling interval (s)
	MaxGap      float64 // max sampling interval (s)
	GPSNoise    float64 // isotropic position noise SD (m)
	StopMinSecs float64 // stop duration bounds
	StopMaxSecs float64

	// OutlierProb injects GPS outliers: with this probability per point,
	// an extra isotropic error of SD OutlierScale is added (urban-canyon
	// multipath spikes). Zero in the standard profiles; the robustness
	// experiment sweeps it.
	OutlierProb  float64
	OutlierScale float64 // outlier SD (m)
}

// WithOutliers returns a copy of the config with outlier injection
// enabled.
func (c Config) WithOutliers(prob, scale float64) Config {
	c.OutlierProb = prob
	c.OutlierScale = scale
	return c
}

// Generator produces trajectories from a Config deterministically per
// seed.
type Generator struct {
	cfg Config
	r   *rand.Rand
}

// New creates a Generator for cfg seeded with seed.
func New(cfg Config, seed int64) *Generator {
	return &Generator{cfg: cfg, r: rand.New(rand.NewSource(seed))}
}

// Trajectory generates one trajectory with n points.
func (g *Generator) Trajectory(n int) traj.Trajectory {
	if n < 2 {
		panic("gen: trajectory needs at least 2 points")
	}
	cfg := g.cfg
	r := g.r

	regime := cfg.Regimes[r.Intn(len(cfg.Regimes))]
	heading := r.Float64() * 2 * math.Pi
	speed := regime.MinSpeed + r.Float64()*(regime.MaxSpeed-regime.MinSpeed)
	x, y := r.Float64()*1000, r.Float64()*1000
	t := 0.0
	stopUntil := -1.0

	out := make(traj.Trajectory, 0, n)
	for i := 0; i < n; i++ {
		nx := x + r.NormFloat64()*cfg.GPSNoise
		ny := y + r.NormFloat64()*cfg.GPSNoise
		if cfg.OutlierProb > 0 && r.Float64() < cfg.OutlierProb {
			nx += r.NormFloat64() * cfg.OutlierScale
			ny += r.NormFloat64() * cfg.OutlierScale
		}
		out = append(out, geo.Pt(nx, ny, t))

		gap := cfg.MinGap + r.Float64()*(cfg.MaxGap-cfg.MinGap)
		t += gap

		if t < stopUntil {
			continue // stationary: position unchanged (modulo GPS noise)
		}
		if r.Float64() < regime.StopProb {
			stopUntil = t + cfg.StopMinSecs + r.Float64()*(cfg.StopMaxSecs-cfg.StopMinSecs)
			continue
		}
		if r.Float64() < cfg.SwitchProb {
			regime = cfg.Regimes[r.Intn(len(cfg.Regimes))]
			speed = regime.MinSpeed + r.Float64()*(regime.MaxSpeed-regime.MinSpeed)
		}
		if r.Float64() < regime.TurnProb {
			// Sharp turn: up to +-120 degrees.
			heading += (r.Float64()*2 - 1) * (2 * math.Pi / 3)
		} else {
			heading += r.NormFloat64() * regime.HeadingSD
		}
		// Speed random walk within the regime band.
		span := regime.MaxSpeed - regime.MinSpeed
		speed += r.NormFloat64() * span * 0.1
		speed = math.Max(regime.MinSpeed, math.Min(regime.MaxSpeed, speed))

		x += speed * gap * math.Cos(heading)
		y += speed * gap * math.Sin(heading)
	}
	return out
}

// Dataset generates count trajectories of n points each.
func (g *Generator) Dataset(count, n int) []traj.Trajectory {
	out := make([]traj.Trajectory, count)
	for i := range out {
		out[i] = g.Trajectory(n)
	}
	return out
}

// DatasetVaried generates count trajectories whose lengths are drawn
// uniformly from [minN, maxN], matching the variability of real datasets.
func (g *Generator) DatasetVaried(count, minN, maxN int) []traj.Trajectory {
	out := make([]traj.Trajectory, count)
	for i := range out {
		n := minN
		if maxN > minN {
			n += g.r.Intn(maxN - minN + 1)
		}
		out[i] = g.Trajectory(n)
	}
	return out
}
