package rlts

import "rlts/internal/adaptive"

// Adaptive measure selection — a prototype of the paper's future-work
// direction (§VII): choosing the error measurement per trajectory instead
// of globally.

// TrajectoryFeatures summarizes the dynamics that differentiate the four
// error measures (heading churn, speed dispersion, sampling regularity).
type TrajectoryFeatures = adaptive.Features

// RecommendMeasure inspects the trajectory's dynamics and recommends the
// error measure whose signal dominates: DAD for turn-heavy movement, SAD
// for stop-and-go speed patterns, SED for irregular sampling, PED
// otherwise.
func RecommendMeasure(t Trajectory) (Measure, TrajectoryFeatures) {
	return adaptive.Recommend(t)
}

// SimplifyBalanced simplifies t under every measure using the given
// per-measure simplifier factory and returns the result minimizing the
// worst normalized error across all four measures, plus the measure that
// produced it.
func SimplifyBalanced(t Trajectory, w int, mk func(Measure) Simplifier) (Measure, Trajectory, error) {
	m, kept, err := adaptive.SelectBalanced(t, w, func(t Trajectory, w int, m Measure) ([]int, error) {
		out, err := mk(m).Simplify(t, w)
		if err != nil {
			return nil, err
		}
		return KeptIndices(t, out)
	})
	if err != nil {
		return 0, nil, err
	}
	return m, t.Pick(kept), nil
}
