// Package errm implements the four error measurements of the paper — SED,
// PED, DAD and SAD — at three granularities: the error of an anchor segment
// w.r.t. a single point, the error of a segment w.r.t. the sub-trajectory it
// approximates, and the error of a whole simplified trajectory. It also
// provides an incremental error tracker that maintains the trajectory error
// across drop/extend operations, which the RL training loop uses to compute
// rewards in amortized sub-linear time.
//
// # Prepared anchors
//
// Every granularity runs geo's prepared anchors (geo.SEDAnchor and its
// siblings), each measure's one implementation. A span scan —
// SegmentError, MeanError, or Top-Down's split search through Prepare
// and Anchor.PointError — prepares the anchor segment once per span and
// then pays only the per-point arithmetic for each covered point, so the
// n' term of RLTS+'s O((n−W)(n' + log W)) cost has a small constant.
// SegmentError's SED scan is geo.SEDAnchor.MaxDistance, which calls
// math.Hypot only for the points whose distance could still be the
// span's largest: on served traffic, once per span instead of once per
// covered point. PointError and OnlineValue are the same kernels applied
// to one point, and every route yields the same float64 bits.
//
// # Degenerate geometry
//
// All four measures are total functions over finite inputs: they return a
// finite, well-defined error for every degenerate shape instead of NaN or
// a panic. The conventions, fixed here and enforced by the differential
// harness in internal/check, are:
//
//   - A zero-length anchor segment (equal endpoint locations, as a
//     stationary stretch produces) has no preferred direction: DAD treats
//     it — and a zero-length motion segment — as imposing no direction
//     constraint and contributes 0 (geo.DirectionDistance). SED and PED
//     measure the plain distance to the shared location.
//   - A zero (or negative) time span yields speed 0 (geo.Segment.Speed),
//     so SAD compares against a stationary interpretation rather than
//     dividing by zero; SED's time interpolation collapses to the segment
//     start (geo.Segment.TimeParam) rather than producing NaN.
//   - Extreme but finite coordinates never turn representable errors into
//     NaN/Inf through intermediate overflow: the geo primitives fall back
//     to normalized/halved arithmetic when a difference or squared length
//     overflows float64. Errors whose true value exceeds the float64
//     range saturate to +Inf; two speeds that both saturate compare equal
//     under SAD.
package errm

import (
	"fmt"
	"strings"

	"rlts/internal/geo"
	"rlts/internal/traj"
)

// Measure identifies one of the four error measurements.
type Measure int

const (
	// SED is the synchronized Euclidean distance: the distance between an
	// original point and the time-synchronized position on its anchor
	// segment.
	SED Measure = iota
	// PED is the perpendicular Euclidean distance: the distance between an
	// original point and the closest position on its anchor segment.
	PED
	// DAD is the direction-aware distance: the angular difference (radians)
	// between the anchor segment's heading and the original motion heading.
	DAD
	// SAD is the speed-aware distance: the absolute difference between the
	// anchor segment's constant-speed interpretation and the original
	// motion speed.
	SAD

	numMeasures
)

// Measures lists all supported measures in a stable order.
var Measures = []Measure{SED, PED, DAD, SAD}

// String returns the conventional upper-case name of the measure.
func (m Measure) String() string {
	switch m {
	case SED:
		return "SED"
	case PED:
		return "PED"
	case DAD:
		return "DAD"
	case SAD:
		return "SAD"
	default:
		return fmt.Sprintf("Measure(%d)", int(m))
	}
}

// Valid reports whether m is one of the defined measures.
func (m Measure) Valid() bool { return m >= 0 && m < numMeasures }

// Parse converts a (case-insensitive) measure name to a Measure.
func Parse(name string) (Measure, error) {
	switch {
	case strings.EqualFold(name, "sed"):
		return SED, nil
	case strings.EqualFold(name, "ped"):
		return PED, nil
	case strings.EqualFold(name, "dad"):
		return DAD, nil
	case strings.EqualFold(name, "sad"):
		return SAD, nil
	}
	return 0, fmt.Errorf("errm: unknown measure %q (want SED, PED, DAD or SAD)", name)
}

// Anchor is the anchor segment T[a]T[b] prepared once for one measure
// (geo's prepared anchors), so the error of each point or motion segment
// it covers costs only the per-point arithmetic. It is a plain value; a
// span scan keeps it on the stack.
type Anchor struct {
	m   Measure
	t   traj.Trajectory
	b   int
	sed geo.SEDAnchor
	ped geo.PEDAnchor
	dad geo.DADAnchor
	sad geo.SADAnchor
}

// Prepare prepares the anchor segment T[a]T[b] for measure m.
func Prepare(m Measure, t traj.Trajectory, a, b int) Anchor {
	an := Anchor{m: m, t: t, b: b}
	s := t.Segment(a, b)
	switch m {
	case SED:
		an.sed = geo.PrepareSED(s)
	case PED:
		an.ped = geo.PreparePED(s)
	case DAD:
		an.dad = geo.PrepareDAD(s)
	case SAD:
		an.sad = geo.PrepareSAD(s)
	default:
		panic(fmt.Sprintf("errm: invalid measure %d", int(m)))
	}
	return an
}

// PointError returns eps(seg | T[i]) for a <= i <= b, as the package
// function PointError defines it.
func (an *Anchor) PointError(i int) float64 {
	switch an.m {
	case SED:
		return an.sed.Distance(an.t[i])
	case PED:
		return an.ped.Distance(an.t[i])
	case DAD:
		return an.dad.Distance(motionAt(an.t, i, an.b))
	default:
		return an.sad.Distance(motionAt(an.t, i, an.b))
	}
}

// PointError returns eps(seg | p): the error of using the anchor segment
// T[a]T[b] in place of the original motion at point T[i], where a <= i <= b.
//
// For SED and PED this is a point-to-segment distance. For DAD and SAD the
// error is attributed to the original motion segment starting at T[i]
// (or ending at it, when i == b), compared against the anchor segment.
func PointError(m Measure, t traj.Trajectory, a, i, b int) float64 {
	an := Prepare(m, t, a, b)
	return an.PointError(i)
}

// motionAt returns the original motion segment attributed to point i:
// the segment from T[i] to T[i+1], falling back to the incoming segment
// for the last point of the anchor span.
func motionAt(t traj.Trajectory, i, b int) geo.Segment {
	if i < b {
		return t.Segment(i, i+1)
	}
	return t.Segment(i-1, i)
}

// SegmentError returns the error of the anchor segment T[a]T[b] w.r.t. the
// sub-trajectory T[a..b] it approximates: the maximum error over the points
// (for SED/PED) or original motion segments (for DAD/SAD) it covers.
// Adjacent anchors (b == a+1) have zero error by construction.
func SegmentError(m Measure, t traj.Trajectory, a, b int) float64 {
	if b <= a+1 {
		return 0
	}
	// The Eq. 12 hot path: SED's span kernel, and one loop per other
	// measure straight over the geo anchor, without Anchor's per-point
	// dispatch.
	anchor := t.Segment(a, b)
	var worst float64
	switch m {
	case SED:
		an := geo.PrepareSED(anchor)
		return an.MaxDistance(t[a+1 : b])
	case PED:
		an := geo.PreparePED(anchor)
		for _, p := range t[a+1 : b] {
			if d := an.Distance(p); d > worst {
				worst = d
			}
		}
	case DAD:
		an := geo.PrepareDAD(anchor)
		for i := a; i < b; i++ {
			if d := an.Distance(t.Segment(i, i+1)); d > worst {
				worst = d
			}
		}
	case SAD:
		an := geo.PrepareSAD(anchor)
		for i := a; i < b; i++ {
			if d := an.Distance(t.Segment(i, i+1)); d > worst {
				worst = d
			}
		}
	default:
		panic(fmt.Sprintf("errm: invalid measure %d", int(m)))
	}
	return worst
}

// OnlineValue returns the buffer-local value of a candidate drop point in
// the online mode (Eq. 1 with the paper's DAD/SAD adaptation): for SED and
// PED it is the distance from cur to the segment prev-next; for DAD and SAD
// it is the angular/speed difference between the two buffer segments
// adjacent to cur, since the original successor of cur may no longer be
// accessible online.
func OnlineValue(m Measure, prev, cur, next geo.Point) float64 {
	switch m {
	case SED:
		return geo.SynchronizedDistance(geo.Seg(prev, next), cur)
	case PED:
		return geo.PerpendicularDistance(geo.Seg(prev, next), cur)
	case DAD:
		return geo.DirectionDistance(geo.Seg(prev, cur), geo.Seg(cur, next))
	case SAD:
		return geo.SpeedDistance(geo.Seg(prev, cur), geo.Seg(cur, next))
	default:
		panic(fmt.Sprintf("errm: invalid measure %d", int(m)))
	}
}
