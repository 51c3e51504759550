package eval

import (
	"rlts/internal/baseline"
	"rlts/internal/errm"
	"rlts/internal/traj"
)

// baselines returns the catalogue's baselines of the given names as
// Algorithms under measure m.
func baselines(m errm.Measure, names ...string) []Algorithm {
	algos := make([]Algorithm, len(names))
	for i, name := range names {
		b := baseline.Lookup(name)
		algos[i] = Algorithm{Name: b.Name, Run: func(t traj.Trajectory, w int) ([]int, error) { return b.Run(t, w, m) }}
	}
	return algos
}

// OnlineBaselines returns the paper's online-mode competitors under
// measure m.
func OnlineBaselines(m errm.Measure) []Algorithm {
	return baselines(m, "sttrace", "squish", "squish-e")
}

// BatchBaselines returns the approximate batch-mode competitors under
// measure m (Span-Search joins only for DAD, as in the paper).
func BatchBaselines(m errm.Measure) []Algorithm {
	if m == errm.DAD {
		return baselines(m, "top-down", "bottom-up", "span-search")
	}
	return baselines(m, "top-down", "bottom-up")
}

// BellmanAlgorithm returns the exact DP as an Algorithm.
func BellmanAlgorithm(m errm.Measure) Algorithm { return baselines(m, "bellman")[0] }
