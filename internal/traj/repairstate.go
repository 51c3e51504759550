package traj

// Binary codec for RepairState, mirroring core.StreamerState's style:
// little-endian, length-prefixed, versioned, total on garbage. The HTTP
// session store embeds this blob in its spill envelope (as a versioned
// extension — see server spill.go), so a spilled session's repair window
// survives a restart bit-identically.
//
// Layout (all little-endian):
//
//	u8      codec version (1)
//	u64     cfg.Window (two's-complement int64)
//	f64     cfg.MaxSpeed
//	f64     cfg.DupRadius
//	u8      cfg.AverageDups (0/1)
//	u64     seq
//	u64     maxRelSeq
//	u32     pending count, then per fix: f64 x, f64 y, f64 t, u64 seq
//	u8      hasHeld; when 1: f64 x, f64 y, f64 t (first fix),
//	        f64 sumX, f64 sumY, u64 heldN
//	u8      hasLast; when 1: f64 x, f64 y, f64 t
//	u64 ×7  report (pushed, emitted, nonFinite, late, reordered,
//	        duplicates, outliers; two's-complement int64)
//
// Floats are raw IEEE-754 bits, so NaN payloads round-trip exactly (the
// validity checks happen in ResumeRepairer, not here).

import (
	"encoding/binary"
	"fmt"
	"math"

	"rlts/internal/geo"
)

// RepairStateVersion is the current repair-state codec version.
const RepairStateVersion = 1

// maxRepairPending bounds the decoded pending count so a corrupt length
// field cannot drive allocation. It comfortably exceeds any plausible
// reordering window.
const maxRepairPending = 1 << 20

// pendingFixBytes is one pending fix's encoded size: f64 x, y, t, u64 seq.
const pendingFixBytes = 32

// AppendBinary appends the state's binary encoding to b.
func (st *RepairState) AppendBinary(b []byte) []byte {
	le := binary.LittleEndian
	b = append(b, RepairStateVersion)
	b = le.AppendUint64(b, uint64(st.Cfg.Window))
	b = le.AppendUint64(b, math.Float64bits(st.Cfg.MaxSpeed))
	b = le.AppendUint64(b, math.Float64bits(st.Cfg.DupRadius))
	b = append(b, b2u(st.Cfg.AverageDups))
	b = le.AppendUint64(b, st.Seq)
	b = le.AppendUint64(b, st.MaxRelSeq)
	b = le.AppendUint32(b, uint32(len(st.Pending)))
	for _, f := range st.Pending {
		b = appendPoint(b, f.P)
		b = le.AppendUint64(b, f.Seq)
	}
	b = append(b, b2u(st.HasHeld))
	if st.HasHeld {
		b = appendPoint(b, st.HeldFirst)
		b = le.AppendUint64(b, math.Float64bits(st.HeldSumX))
		b = le.AppendUint64(b, math.Float64bits(st.HeldSumY))
		b = le.AppendUint64(b, uint64(st.HeldN))
	}
	b = append(b, b2u(st.HasLast))
	if st.HasLast {
		b = appendPoint(b, st.Last)
	}
	for _, v := range st.Report.fields() {
		b = le.AppendUint64(b, uint64(v))
	}
	return b
}

// DecodeRepairState parses a blob produced by AppendBinary. It is total:
// truncated, trailing-garbage or otherwise malformed input yields an
// error, never a panic. Semantic validity (heap property, balanced
// report, finite gate) is ResumeRepairer's job.
func DecodeRepairState(data []byte) (*RepairState, error) {
	d := &stateReader{buf: data}
	if v := d.u8(); d.err == nil && v != RepairStateVersion {
		return nil, fmt.Errorf("traj: repair state version %d, want %d", v, RepairStateVersion)
	}
	st := &RepairState{}
	st.Cfg.Window = int(int64(d.u64()))
	st.Cfg.MaxSpeed = d.f64()
	st.Cfg.DupRadius = d.f64()
	st.Cfg.AverageDups = d.bool()
	st.Seq = d.u64()
	st.MaxRelSeq = d.u64()
	n := int(d.u32())
	if d.err == nil && n > maxRepairPending {
		return nil, fmt.Errorf("traj: repair state declares %d pending fixes (max %d)", n, maxRepairPending)
	}
	// Check the declared fixes against the bytes left before allocating
	// for them, so a short blob cannot drive a large allocation.
	if rem := len(data) - d.off; d.err == nil && n*pendingFixBytes > rem {
		return nil, fmt.Errorf("traj: repair state declares %d pending fixes, %d bytes remain", n, rem)
	}
	if d.err == nil && n > 0 {
		st.Pending = make([]PendingFixState, n)
		for i := range st.Pending {
			st.Pending[i].P = d.point()
			st.Pending[i].Seq = d.u64()
		}
	}
	st.HasHeld = d.bool()
	if st.HasHeld {
		st.HeldFirst = d.point()
		st.HeldSumX = d.f64()
		st.HeldSumY = d.f64()
		st.HeldN = int(int64(d.u64()))
	}
	st.HasLast = d.bool()
	if st.HasLast {
		st.Last = d.point()
	}
	for _, f := range st.Report.fieldPtrs() {
		*f = int(int64(d.u64()))
	}
	if d.err != nil {
		return nil, fmt.Errorf("traj: decode repair state: %w", d.err)
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("traj: repair state has %d trailing bytes", len(data)-d.off)
	}
	return st, nil
}

// fields returns the report counters in codec order.
func (r RepairReport) fields() [7]int {
	return [7]int{r.Pushed, r.Emitted, r.NonFinite, r.Late, r.Reordered, r.Duplicates, r.Outliers}
}

// fieldPtrs returns pointers to the report counters in codec order.
func (r *RepairReport) fieldPtrs() [7]*int {
	return [7]*int{&r.Pushed, &r.Emitted, &r.NonFinite, &r.Late, &r.Reordered, &r.Duplicates, &r.Outliers}
}

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func appendPoint(b []byte, p geo.Point) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.X))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Y))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(p.T))
}

// stateReader is a bounds-checked little-endian cursor: reads past the
// end set err and return zeros.
type stateReader struct {
	buf []byte
	off int
	err error
}

func (d *stateReader) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("truncated at byte %d (need %d of %d)", d.off, n, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *stateReader) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *stateReader) bool() bool { return d.u8() != 0 }

func (d *stateReader) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *stateReader) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *stateReader) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *stateReader) point() geo.Point {
	return geo.Point{X: d.f64(), Y: d.f64(), T: d.f64()}
}
