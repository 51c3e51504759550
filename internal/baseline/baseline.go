// Package baseline is the one catalogue of the paper's comparison
// algorithms: the online STTrace, SQUISH and SQUISH-E, the batch
// Top-Down, Bottom-Up, Bellman and Span-Search, and Uniform sampling as a
// sanity floor. The HTTP server, rlts-simplify, the eval harness and the
// root API all resolve a baseline by name here; the algorithms
// themselves live in the online and batch subpackages.
package baseline

import (
	"rlts/internal/baseline/batch"
	"rlts/internal/baseline/online"
	"rlts/internal/errm"
	"rlts/internal/traj"
)

// Algorithm is one catalogued baseline.
type Algorithm struct {
	// Name is the paper's name for the algorithm ("Bottom-Up").
	Name string
	// Names are the lower-case names it is accepted under, the one
	// GET /v1/algorithms lists first.
	Names []string
	// Run reduces t to at most w points under measure m, keeping the
	// first and last. Span-Search and Uniform ignore m.
	Run func(t traj.Trajectory, w int, m errm.Measure) ([]int, error)
}

// All is the catalogue, in the paper's order.
var All = []Algorithm{
	{"STTrace", []string{"sttrace"}, online.STTrace},
	{"SQUISH", []string{"squish"}, online.SQUISH},
	{"SQUISH-E", []string{"squish-e", "squishe"}, online.SQUISHE},
	{"Top-Down", []string{"top-down", "topdown"}, batch.TopDown},
	{"Bottom-Up", []string{"bottom-up", "bottomup"}, batch.BottomUp},
	{"Bellman", []string{"bellman"}, batch.Bellman},
	{"Span-Search", []string{"span-search", "spansearch"}, func(t traj.Trajectory, w int, _ errm.Measure) ([]int, error) {
		return batch.SpanSearch(t, w)
	}},
	{"Uniform", []string{"uniform"}, func(t traj.Trajectory, w int, _ errm.Measure) ([]int, error) {
		return online.Uniform(t, w)
	}},
}

// Lookup returns the baseline accepted under name, matched exactly (the
// names are lower-case), or nil when there is none.
func Lookup(name string) *Algorithm {
	for i := range All {
		for _, n := range All[i].Names {
			if n == name {
				return &All[i]
			}
		}
	}
	return nil
}
