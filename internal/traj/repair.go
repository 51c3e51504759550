package traj

// Repair is the dirty-GPS ingest stage: production position feeds arrive
// out-of-order, duplicated, noise-spiked and occasionally non-finite,
// all of which the strict FromPoints/Validate contract rejects. The
// Repairer turns such a raw fix stream into a stream that always
// satisfies that contract, deterministically, and accounts for every
// fix it altered or dropped in a per-defect RepairReport.
//
// The pipeline has three stages, applied in order to every pushed fix:
//
//  1. finite filter — NaN/Inf coordinates or timestamps are dropped
//     (counted NonFinite). Nothing downstream ever sees a non-finite
//     value, which is what makes the later stages total.
//  2. bounded reordering window — fixes sit in a min-heap (by timestamp,
//     arrival order breaking ties) of at most Window entries; a fix is
//     released only when the window is full, so any fix delayed by at
//     most Window-1 positions is re-sorted into place (counted
//     Reordered). A fix older than one already released is beyond what
//     the window can fix and is dropped (counted Late).
//  3. dedup + speed gate — released fixes with equal timestamps collapse
//     to one point (keep-first, or position-averaged with AverageDups;
//     counted Duplicates), except that when the speed gate is enabled a
//     duplicate displaced more than DupRadius from the group's first fix
//     is a zero-duration teleport, not a re-sent fix, and is dropped as
//     an outlier. Finally the gate drops any point whose implied speed
//     from the previously emitted point exceeds MaxSpeed (counted
//     Outliers). The gate self-heals after a genuine relocation: the
//     implied speed from the last emitted point shrinks as time
//     advances, so a sustained jump is accepted once enough time has
//     passed — only isolated spikes stay filtered.
//
// Clean input passes through bit-identically: a stream of finite,
// strictly-increasing fixes within the speed gate is emitted unchanged,
// point for point (proven by the internal/check repair pillar).
//
// The Repairer is streaming and resumable: ExportState captures the
// window contents, the pending duplicate group, the gate anchor and the
// report, and ResumeRepairer continues bit-identically — the HTTP
// session layer carries this through its spill codec.

import (
	"fmt"
	"math"

	"rlts/internal/geo"
)

// DefaultRepairWindow is the reordering window used when
// RepairConfig.Window is zero: deep enough for the transposition bursts
// real receivers produce, shallow enough that a snapshot lags the sensor
// by at most 16 fixes.
const DefaultRepairWindow = 16

// RepairConfig tunes the repair pipeline. The zero value enables the
// default reordering window and dedup with no speed gate.
type RepairConfig struct {
	// Window bounds the reordering buffer: a fix delayed by fewer than
	// Window positions is re-sorted into place; later fixes are dropped
	// as unrepairable. 0 means DefaultRepairWindow; negative disables
	// reordering (fixes flow straight through, late ones drop).
	Window int
	// MaxSpeed enables the teleport/outlier gate: a point whose implied
	// speed from the previously emitted point exceeds this (coordinate
	// units per second) is dropped. <= 0 disables the gate.
	MaxSpeed float64
	// DupRadius separates re-sent fixes from zero-duration teleports
	// when the gate is enabled: a duplicate-timestamp fix displaced
	// farther than this from its group's first fix is an outlier. 0
	// means MaxSpeed x 1s (the displacement a legitimate fix could
	// accumulate in one second). Ignored while the gate is disabled.
	DupRadius float64
	// AverageDups merges duplicate-timestamp fixes by averaging their
	// positions instead of keeping the first — re-sent fixes usually
	// differ only by receiver noise, and the mean cancels some of it.
	AverageDups bool
}

// window returns the effective reordering window size.
func (c RepairConfig) window() int {
	if c.Window == 0 {
		return DefaultRepairWindow
	}
	if c.Window < 0 {
		return 0
	}
	return c.Window
}

// dupRadius returns the effective teleport radius for duplicates.
func (c RepairConfig) dupRadius() float64 {
	if c.DupRadius > 0 {
		return c.DupRadius
	}
	return c.MaxSpeed
}

// RepairReport accounts for every fix the pipeline touched, by defect
// class. Pushed == Emitted + NonFinite + Late + Duplicates + Outliers +
// Pending (fixes still sitting in the window or the duplicate group).
type RepairReport struct {
	Pushed     int // raw fixes pushed
	Emitted    int // points emitted downstream
	NonFinite  int // dropped: NaN/Inf coordinate or timestamp
	Late       int // dropped: older than an already-released fix (beyond the window)
	Reordered  int // emitted out of arrival order (the window re-sorted them)
	Duplicates int // duplicate-timestamp fixes merged into their group's point
	Outliers   int // dropped by the speed gate (teleports, zero-duration included)
}

// Dropped returns the total fixes the pipeline discarded.
func (r RepairReport) Dropped() int {
	return r.NonFinite + r.Late + r.Duplicates + r.Outliers
}

// Add returns the per-defect sum r + o, for aggregating reports across
// trajectories.
func (r RepairReport) Add(o RepairReport) RepairReport {
	return RepairReport{
		Pushed:     r.Pushed + o.Pushed,
		Emitted:    r.Emitted + o.Emitted,
		NonFinite:  r.NonFinite + o.NonFinite,
		Late:       r.Late + o.Late,
		Reordered:  r.Reordered + o.Reordered,
		Duplicates: r.Duplicates + o.Duplicates,
		Outliers:   r.Outliers + o.Outliers,
	}
}

// Sub returns the per-defect difference r - o: the deltas between two
// cumulative reports (the HTTP layer turns these into counter
// increments).
func (r RepairReport) Sub(o RepairReport) RepairReport {
	return RepairReport{
		Pushed:     r.Pushed - o.Pushed,
		Emitted:    r.Emitted - o.Emitted,
		NonFinite:  r.NonFinite - o.NonFinite,
		Late:       r.Late - o.Late,
		Reordered:  r.Reordered - o.Reordered,
		Duplicates: r.Duplicates - o.Duplicates,
		Outliers:   r.Outliers - o.Outliers,
	}
}

// pendingFix is one fix waiting in the reordering window. seq is the
// arrival counter: it breaks timestamp ties so two fixes with equal
// timestamps release in arrival order (keep-first dedup depends on it),
// and it detects reordering at release time.
type pendingFix struct {
	P   geo.Point
	Seq uint64
}

// Repairer is the streaming repair pipeline. It is not safe for
// concurrent use; the HTTP session layer serializes it under the
// session lock like the streamer it feeds.
type Repairer struct {
	cfg RepairConfig

	heap []pendingFix // min-heap by (T, Seq)
	seq  uint64       // arrival counter
	// maxRelSeq is the largest arrival seq released from the window so
	// far; a release with a smaller seq was overtaken, i.e. reordered.
	maxRelSeq uint64

	// The pending duplicate group: fixes released from the window whose
	// timestamp equals heldT are merged here until a later timestamp
	// arrives and flushes the group through the gate.
	hasHeld   bool
	heldFirst geo.Point // first-arrived fix of the group (keep-first, DupRadius anchor)
	heldSumX  float64   // position sums for AverageDups
	heldSumY  float64
	heldN     int
	// The gate anchor: the last point emitted downstream.
	hasLast bool
	last    geo.Point

	rep  RepairReport
	emit []geo.Point // scratch, reused across Push calls
}

// NewRepairer creates a streaming repairer.
func NewRepairer(cfg RepairConfig) *Repairer {
	return &Repairer{cfg: cfg}
}

// Report returns the cumulative per-defect accounting.
func (r *Repairer) Report() RepairReport { return r.rep }

// Pending returns the number of fixes buffered but not yet emitted (the
// reordering window plus the open duplicate group).
func (r *Repairer) Pending() int {
	n := len(r.heap)
	if r.hasHeld {
		n++
	}
	return n
}

// Push feeds the next raw fix and returns the points it released
// downstream, in strictly increasing timestamp order (possibly none:
// the window may absorb the fix entirely). The returned slice is scratch
// owned by the repairer and valid only until the next Push or Flush.
func (r *Repairer) Push(p geo.Point) []geo.Point {
	r.emit = r.emit[:0]
	r.rep.Pushed++
	if !p.IsFinite() {
		r.rep.NonFinite++
		return r.emit
	}
	r.heapPush(pendingFix{P: p, Seq: r.seq})
	r.seq++
	for len(r.heap) > r.cfg.window() {
		r.release(r.heapPop())
	}
	return r.emit
}

// Flush drains the window and the open duplicate group — the end of the
// stream. The returned slice is scratch like Push's. The repairer
// remains usable: fixes pushed afterwards continue the same stream
// (still gated against the last emitted point), though anything older
// than the flushed tail is now late by construction.
func (r *Repairer) Flush() []geo.Point {
	r.emit = r.emit[:0]
	for len(r.heap) > 0 {
		r.release(r.heapPop())
	}
	r.flushHeld()
	return r.emit
}

// release routes one fix popped from the window through dedup and the
// gate.
func (r *Repairer) release(f pendingFix) {
	if f.Seq < r.maxRelSeq {
		r.rep.Reordered++
	} else {
		r.maxRelSeq = f.Seq
	}
	// Ordering reference: the open group's timestamp if one exists, else
	// the last emitted point. The heap guarantees order within the
	// window; a fix can still be late relative to what already left it.
	switch {
	case r.hasHeld:
		if f.P.T < r.heldT() {
			r.rep.Late++
			return
		}
		if f.P.T == r.heldT() {
			r.joinHeld(f.P)
			return
		}
	case r.hasLast && f.P.T <= r.last.T:
		// A fix at exactly the gate anchor's timestamp is a duplicate of
		// an already-emitted point and cannot be merged retroactively.
		if f.P.T == r.last.T {
			r.rep.Duplicates++
		} else {
			r.rep.Late++
		}
		return
	}
	r.flushHeld()
	r.hasHeld = true
	r.heldFirst = f.P
	r.heldSumX, r.heldSumY = f.P.X, f.P.Y
	r.heldN = 1
}

func (r *Repairer) heldT() float64 { return r.heldFirst.T }

// joinHeld merges a duplicate-timestamp fix into the open group — or
// classifies it as a zero-duration teleport when the gate is on and the
// fix is displaced beyond DupRadius from the group's first fix.
func (r *Repairer) joinHeld(p geo.Point) {
	if r.cfg.MaxSpeed > 0 && geo.Dist(p, r.heldFirst) > r.cfg.dupRadius() {
		r.rep.Outliers++
		return
	}
	r.rep.Duplicates++
	if r.cfg.AverageDups {
		r.heldSumX += p.X
		r.heldSumY += p.Y
		r.heldN++
	}
}

// flushHeld closes the open duplicate group and sends its merged point
// through the speed gate.
func (r *Repairer) flushHeld() {
	if !r.hasHeld {
		return
	}
	p := r.heldFirst
	if r.cfg.AverageDups && r.heldN > 1 {
		p.X = r.heldSumX / float64(r.heldN)
		p.Y = r.heldSumY / float64(r.heldN)
	}
	r.hasHeld = false
	r.heldN = 0
	if r.cfg.MaxSpeed > 0 && r.hasLast {
		// dt > 0 by construction (dedup consumed equal timestamps), so
		// the division is total; an overflowed distance compares as +Inf
		// and gates like any other excessive speed.
		if speed := geo.Dist(p, r.last) / (p.T - r.last.T); speed > r.cfg.MaxSpeed {
			r.rep.Outliers++
			return
		}
	}
	r.rep.Emitted++
	r.last, r.hasLast = p, true
	r.emit = append(r.emit, p)
}

// Min-heap on (T, Seq). Hand-rolled so the pending array is exportable
// verbatim (heap layout is part of the resumable state, exactly like
// buffer.Buffer's value heap).

func (r *Repairer) heapLess(i, j int) bool {
	if r.heap[i].P.T != r.heap[j].P.T {
		return r.heap[i].P.T < r.heap[j].P.T
	}
	return r.heap[i].Seq < r.heap[j].Seq
}

func (r *Repairer) heapPush(f pendingFix) {
	r.heap = append(r.heap, f)
	i := len(r.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !r.heapLess(i, parent) {
			break
		}
		r.heap[i], r.heap[parent] = r.heap[parent], r.heap[i]
		i = parent
	}
}

func (r *Repairer) heapPop() pendingFix {
	top := r.heap[0]
	n := len(r.heap) - 1
	r.heap[0] = r.heap[n]
	r.heap = r.heap[:n]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < n && r.heapLess(l, small) {
			small = l
		}
		if rr < n && r.heapLess(rr, small) {
			small = rr
		}
		if small == i {
			break
		}
		r.heap[i], r.heap[small] = r.heap[small], r.heap[i]
		i = small
	}
	return top
}

// Repair runs the whole pipeline over a raw fix list — the one-shot form
// the batch endpoints use. The returned trajectory always satisfies the
// strict Validate contract; when repair leaves fewer than two points the
// error wraps ErrTooShort and the report still describes what happened.
func Repair(points [][3]float64, cfg RepairConfig) (Trajectory, RepairReport, error) {
	rp := NewRepairer(cfg)
	out := make(Trajectory, 0, len(points))
	for _, p := range points {
		out = append(out, rp.Push(geo.Pt(p[0], p[1], p[2]))...)
	}
	out = append(out, rp.Flush()...)
	rep := rp.Report()
	if len(out) < 2 {
		return nil, rep, fmt.Errorf("%w: repair left %d of %d points (%d non-finite, %d late, %d duplicate, %d outlier)",
			ErrTooShort, len(out), len(points), rep.NonFinite, rep.Late, rep.Duplicates, rep.Outliers)
	}
	return out, rep, nil
}

// RepairState is the complete resumable state of a Repairer: the
// configuration, the window contents in exact heap layout, the open
// duplicate group, the gate anchor and the cumulative report.
// ResumeRepairer continues bit-identically from it; the HTTP session
// layer serializes it as a versioned extension of its spill envelope.
type RepairState struct {
	Cfg RepairConfig

	Seq       uint64
	MaxRelSeq uint64

	Pending []pendingFixState // heap array, verbatim layout

	HasHeld   bool
	HeldFirst geo.Point
	HeldSumX  float64
	HeldSumY  float64
	HeldN     int

	HasLast bool
	Last    geo.Point

	Report RepairReport
}

// pendingFixState mirrors pendingFix for export (exported fields).
type pendingFixState struct {
	P   geo.Point
	Seq uint64
}

// PendingFixState is the exported alias used by serializers.
type PendingFixState = pendingFixState

// ExportState captures the repairer's resumable state. The pending
// window is exported in its exact heap layout so a resumed repairer
// releases fixes in the identical order, timestamp ties included.
func (r *Repairer) ExportState() *RepairState {
	st := &RepairState{
		Cfg:       r.cfg,
		Seq:       r.seq,
		MaxRelSeq: r.maxRelSeq,
		HasHeld:   r.hasHeld,
		HeldFirst: r.heldFirst,
		HeldSumX:  r.heldSumX,
		HeldSumY:  r.heldSumY,
		HeldN:     r.heldN,
		HasLast:   r.hasLast,
		Last:      r.last,
		Report:    r.rep,
	}
	if len(r.heap) > 0 {
		st.Pending = make([]pendingFixState, len(r.heap))
		for i, f := range r.heap {
			st.Pending[i] = pendingFixState{P: f.P, Seq: f.Seq}
		}
	}
	return st
}

// ResumeRepairer rebuilds a repairer from an exported state, validating
// it in full first: a corrupted state yields an error, never a repairer
// that violates the output contract later.
func ResumeRepairer(st *RepairState) (*Repairer, error) {
	if err := st.validate(); err != nil {
		return nil, err
	}
	r := NewRepairer(st.Cfg)
	r.seq = st.Seq
	r.maxRelSeq = st.MaxRelSeq
	r.hasHeld = st.HasHeld
	r.heldFirst = st.HeldFirst
	r.heldSumX, r.heldSumY = st.HeldSumX, st.HeldSumY
	r.heldN = st.HeldN
	r.hasLast = st.HasLast
	r.last = st.Last
	r.rep = st.Report
	r.heap = make([]pendingFix, len(st.Pending))
	for i, f := range st.Pending {
		r.heap[i] = pendingFix{P: f.P, Seq: f.Seq}
	}
	return r, nil
}

// validate checks the state's internal consistency: finite points, a
// well-formed heap, sequence numbers below the arrival counter, a
// plausible duplicate group and non-negative accounting.
func (st *RepairState) validate() error {
	if math.IsNaN(st.Cfg.MaxSpeed) || math.IsInf(st.Cfg.MaxSpeed, 0) ||
		math.IsNaN(st.Cfg.DupRadius) || math.IsInf(st.Cfg.DupRadius, 0) || st.Cfg.DupRadius < 0 {
		return fmt.Errorf("traj: repair state: non-finite gate configuration")
	}
	if len(st.Pending) > st.Cfg.window() {
		return fmt.Errorf("traj: repair state: %d pending fixes exceed window %d",
			len(st.Pending), st.Cfg.window())
	}
	rep := st.Report
	if rep.Pushed < 0 || rep.Emitted < 0 || rep.NonFinite < 0 || rep.Late < 0 ||
		rep.Reordered < 0 || rep.Duplicates < 0 || rep.Outliers < 0 {
		return fmt.Errorf("traj: repair state: negative report counter")
	}
	pending := len(st.Pending)
	if st.HasHeld {
		pending++
	}
	if rep.Emitted+rep.Dropped()+pending != rep.Pushed {
		return fmt.Errorf("traj: repair state: report does not balance (%d pushed vs %d accounted)",
			rep.Pushed, rep.Emitted+rep.Dropped()+pending)
	}
	seen := make(map[uint64]bool, len(st.Pending))
	for i, f := range st.Pending {
		if !f.P.IsFinite() {
			return fmt.Errorf("traj: repair state: non-finite pending fix at %d", i)
		}
		if f.Seq >= st.Seq {
			return fmt.Errorf("traj: repair state: pending seq %d not below arrival counter %d", f.Seq, st.Seq)
		}
		if seen[f.Seq] {
			return fmt.Errorf("traj: repair state: duplicate pending seq %d", f.Seq)
		}
		seen[f.Seq] = true
		if i > 0 {
			parent := (i - 1) / 2
			pp, cc := st.Pending[parent], st.Pending[i]
			if cc.P.T < pp.P.T || (cc.P.T == pp.P.T && cc.Seq < pp.Seq) {
				return fmt.Errorf("traj: repair state: heap property violated at %d", i)
			}
		}
	}
	if st.HasHeld {
		if !st.HeldFirst.IsFinite() ||
			math.IsNaN(st.HeldSumX) || math.IsInf(st.HeldSumX, 0) ||
			math.IsNaN(st.HeldSumY) || math.IsInf(st.HeldSumY, 0) {
			return fmt.Errorf("traj: repair state: non-finite duplicate group")
		}
		if st.HeldN < 1 {
			return fmt.Errorf("traj: repair state: duplicate group with %d members", st.HeldN)
		}
		if !st.Cfg.AverageDups && st.HeldN > 1 {
			return fmt.Errorf("traj: repair state: keep-first group claims %d members", st.HeldN)
		}
		if st.HasLast && st.HeldFirst.T <= st.Last.T {
			return fmt.Errorf("traj: repair state: duplicate group does not advance past the gate anchor")
		}
	} else if st.HeldN != 0 {
		return fmt.Errorf("traj: repair state: closed duplicate group with %d members", st.HeldN)
	}
	if st.HasLast && !st.Last.IsFinite() {
		return fmt.Errorf("traj: repair state: non-finite gate anchor")
	}
	return nil
}
