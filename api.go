package rlts

import (
	"fmt"

	"rlts/internal/baseline"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/geo"
	"rlts/internal/traj"
)

// Point is a spatio-temporal point (x, y, t).
type Point = geo.Point

// Pt constructs a Point.
func Pt(x, y, t float64) Point { return geo.Pt(x, y, t) }

// Trajectory is a time-ordered sequence of points.
type Trajectory = traj.Trajectory

// Measure identifies an error measurement.
type Measure = errm.Measure

// The four error measurements of the paper.
const (
	SED = errm.SED // synchronized Euclidean distance
	PED = errm.PED // perpendicular Euclidean distance
	DAD = errm.DAD // direction-aware distance (radians)
	SAD = errm.SAD // speed-aware distance
)

// Measures lists all supported measures.
var Measures = errm.Measures

// ParseMeasure converts a measure name ("SED", "ped", ...).
func ParseMeasure(name string) (Measure, error) { return errm.Parse(name) }

// Variant selects the RLTS state definition (see the paper / DESIGN.md).
type Variant = core.Variant

// RLTS variants: Online (RLTS / RLTS-Skip), Plus (RLTS+ / RLTS-Skip+) and
// PlusPlus (RLTS++ / RLTS-Skip++).
const (
	Online   = core.Online
	Plus     = core.Plus
	PlusPlus = core.PlusPlus
)

// Options configures an RLTS algorithm instance: the error measure, the
// variant, the state size K and the skip horizon J.
type Options = core.Options

// NewOptions returns the paper's default options (K=3, no skipping) for a
// measure and variant. Set J on the result to enable the Skip variant.
func NewOptions(m Measure, v Variant) Options { return core.DefaultOptions(m, v) }

// Simplifier is a trajectory simplification algorithm: it reduces t to at
// most w points, always keeping the first and last.
type Simplifier interface {
	// Name returns the algorithm's name as used in the paper.
	Name() string
	// Simplify returns the simplified trajectory.
	Simplify(t Trajectory, w int) (Trajectory, error)
}

// funcSimplifier adapts an index-returning algorithm to the Simplifier
// interface.
type funcSimplifier struct {
	name string
	run  func(t Trajectory, w int) ([]int, error)
}

func (f funcSimplifier) Name() string { return f.name }

func (f funcSimplifier) Simplify(t Trajectory, w int) (Trajectory, error) {
	kept, err := f.run(t, w)
	if err != nil {
		return nil, err
	}
	return t.Pick(kept), nil
}

// catalogued adapts the baseline catalogued under name to the
// Simplifier interface under measure m.
func catalogued(name string, m Measure) Simplifier {
	b := baseline.Lookup(name)
	return funcSimplifier{b.Name, func(t Trajectory, w int) ([]int, error) { return b.Run(t, w, m) }}
}

// STTrace returns the STTrace online baseline under measure m.
func STTrace(m Measure) Simplifier { return catalogued("sttrace", m) }

// SQUISH returns the SQUISH online baseline under measure m.
func SQUISH(m Measure) Simplifier { return catalogued("squish", m) }

// SQUISHE returns the SQUISH-E online baseline under measure m.
func SQUISHE(m Measure) Simplifier { return catalogued("squish-e", m) }

// TopDown returns the budgeted Douglas-Peucker batch baseline.
func TopDown(m Measure) Simplifier { return catalogued("top-down", m) }

// BottomUp returns the Bottom-Up batch baseline.
func BottomUp(m Measure) Simplifier { return catalogued("bottom-up", m) }

// Bellman returns the exact dynamic-programming algorithm. It is cubic:
// use it only on short trajectories.
func Bellman(m Measure) Simplifier { return catalogued("bellman", m) }

// SpanSearch returns the DAD-specific Span-Search batch baseline.
func SpanSearch() Simplifier { return catalogued("span-search", DAD) }

// Uniform returns the uniform-sampling sanity baseline.
func Uniform() Simplifier { return catalogued("uniform", SED) }

// Error returns eps(simplified) w.r.t. the original trajectory under
// measure m: the maximum anchor-segment error (the paper's Min-Error
// objective). simplified must be a genuine simplification of t.
func Error(m Measure, t, simplified Trajectory) (float64, error) {
	return errm.ErrorOfTrajectory(m, t, simplified)
}

// MeanError returns the mean per-point error of the simplification, a
// secondary diagnostic to the max-based Error.
func MeanError(m Measure, t, simplified Trajectory) (float64, error) {
	kept, err := errm.KeptIndices(t, simplified)
	if err != nil {
		return 0, err
	}
	return errm.MeanError(m, t, kept), nil
}

// KeptIndices maps a simplified trajectory back to the indices of its
// points in the original.
func KeptIndices(t, simplified Trajectory) ([]int, error) {
	return errm.KeptIndices(t, simplified)
}

func checkW(w int) error {
	if w < 2 {
		return fmt.Errorf("rlts: budget W must be >= 2, got %d", w)
	}
	return nil
}
