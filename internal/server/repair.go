package server

// Opt-in dirty-input repair for the ingest endpoints. A request (or
// stream session) carrying a "repair" object routes its raw points
// through traj.Repairer before validation, so out-of-order, duplicated,
// noise-spiked or non-finite fixes are repaired instead of rejected with
// a 400. Without "repair" the strict contract stands, but rejects now
// carry a classified code (points_unordered / points_duplicate /
// points_non_finite / points_too_short) and a defect-labelled
// rlts_ingest_rejects_total increment, so operators can see WHAT the
// fleet's devices are sending before opting sessions into repair.
//
// Repaired requests report the per-defect accounting inline (the
// "repair" object of the response) and increment
// rlts_repair_points_total{defect=...}.

import (
	"errors"

	"rlts/internal/obs"
	"rlts/internal/traj"
)

// Classified reject codes for the strict ingest paths: each is one
// defect class of the repair taxonomy (DESIGN.md §17).
const (
	codePointsUnordered = "points_unordered"
	codePointsDuplicate = "points_duplicate"
	codePointsNonFinite = "points_non_finite"
	codePointsTooShort  = "points_too_short"
)

// pointsErrorCode classifies a traj validation error into its
// machine-readable reject code (codeInvalidPoints when the error is not
// one of the known defect classes).
func pointsErrorCode(err error) string {
	switch {
	case errors.Is(err, traj.ErrNotFinite):
		return codePointsNonFinite
	case errors.Is(err, traj.ErrDuplicateTime):
		return codePointsDuplicate
	case errors.Is(err, traj.ErrNotOrdered):
		return codePointsUnordered
	case errors.Is(err, traj.ErrTooShort):
		return codePointsTooShort
	default:
		return codeInvalidPoints
	}
}

// repairParams is the wire form of a repair opt-in, mapping 1:1 onto
// traj.RepairConfig (zero values select the documented defaults).
type repairParams struct {
	Window      int     `json:"window,omitempty"`
	MaxSpeed    float64 `json:"max_speed,omitempty"`
	DupRadius   float64 `json:"dup_radius,omitempty"`
	AverageDups bool    `json:"average_dups,omitempty"`
}

func (p *repairParams) config() traj.RepairConfig {
	return traj.RepairConfig{
		Window:      p.Window,
		MaxSpeed:    p.MaxSpeed,
		DupRadius:   p.DupRadius,
		AverageDups: p.AverageDups,
	}
}

// repairReportJSON is the response shape of a repair accounting (one
// request's or one push's delta, or a session's cumulative total).
type repairReportJSON struct {
	Pushed     int `json:"pushed"`
	Emitted    int `json:"emitted"`
	NonFinite  int `json:"non_finite"`
	Late       int `json:"late"`
	Reordered  int `json:"reordered"`
	Duplicates int `json:"duplicates"`
	Outliers   int `json:"outliers"`
}

func reportJSON(r traj.RepairReport) *repairReportJSON {
	return &repairReportJSON{
		Pushed:     r.Pushed,
		Emitted:    r.Emitted,
		NonFinite:  r.NonFinite,
		Late:       r.Late,
		Reordered:  r.Reordered,
		Duplicates: r.Duplicates,
		Outliers:   r.Outliers,
	}
}

// repairMetrics holds the rlts_repair_* and reject series for one
// registry: a per-defect-class counter family plus a repaired-requests
// counter, and the defect-labelled reject counter the strict paths use.
type repairMetrics struct {
	requests *obs.Counter

	nonFinite  *obs.Counter
	late       *obs.Counter
	reordered  *obs.Counter
	duplicates *obs.Counter
	outliers   *obs.Counter

	rejects map[string]*obs.Counter
}

func newRepairMetrics(reg *obs.Registry) *repairMetrics {
	points := func(defect string) *obs.Counter {
		return reg.Counter("rlts_repair_points_total",
			"Fixes altered or dropped by the ingest repair stage, by defect class",
			obs.L("defect", defect))
	}
	reject := func(defect string) *obs.Counter {
		return reg.Counter("rlts_ingest_rejects_total",
			"Strict-validation ingest rejections, by defect class",
			obs.L("defect", defect))
	}
	return &repairMetrics{
		requests: reg.Counter("rlts_repair_requests_total",
			"Ingest requests served with repair enabled"),
		nonFinite:  points("non_finite"),
		late:       points("late"),
		reordered:  points("reordered"),
		duplicates: points("duplicate"),
		outliers:   points("outlier"),
		rejects: map[string]*obs.Counter{
			codePointsNonFinite: reject("non_finite"),
			codePointsDuplicate: reject("duplicate"),
			codePointsUnordered: reject("unordered"),
			codePointsTooShort:  reject("too_short"),
			codeInvalidPoints:   reject("other"),
		},
	}
}

// observe adds one repair delta to the per-defect counters.
func (m *repairMetrics) observe(d traj.RepairReport) {
	m.requests.Inc()
	add := func(c *obs.Counter, n int) {
		if n > 0 {
			c.Add(uint64(n))
		}
	}
	add(m.nonFinite, d.NonFinite)
	add(m.late, d.Late)
	add(m.reordered, d.Reordered)
	add(m.duplicates, d.Duplicates)
	add(m.outliers, d.Outliers)
}

// reject counts one classified strict-path rejection.
func (m *repairMetrics) reject(code string) {
	if c, ok := m.rejects[code]; ok {
		c.Inc()
	}
}
