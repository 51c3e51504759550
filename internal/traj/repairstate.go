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

	"rlts/internal/codec"
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
	b = codec.AppendF64(b, st.Cfg.MaxSpeed)
	b = codec.AppendF64(b, st.Cfg.DupRadius)
	b = append(b, b2u(st.Cfg.AverageDups))
	b = le.AppendUint64(b, st.Seq)
	b = le.AppendUint64(b, st.MaxRelSeq)
	b = le.AppendUint32(b, uint32(len(st.Pending)))
	for _, f := range st.Pending {
		b = codec.AppendPoint(b, f.P)
		b = le.AppendUint64(b, f.Seq)
	}
	b = append(b, b2u(st.HasHeld))
	if st.HasHeld {
		b = codec.AppendPoint(b, st.HeldFirst)
		b = codec.AppendF64(b, st.HeldSumX)
		b = codec.AppendF64(b, st.HeldSumY)
		b = le.AppendUint64(b, uint64(st.HeldN))
	}
	b = append(b, b2u(st.HasLast))
	if st.HasLast {
		b = codec.AppendPoint(b, st.Last)
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
	d := &codec.Reader{Buf: data}
	if v := d.U8(); d.Err == nil && v != RepairStateVersion {
		return nil, fmt.Errorf("traj: repair state version %d, want %d", v, RepairStateVersion)
	}
	st := &RepairState{}
	st.Cfg.Window = int(int64(d.U64()))
	st.Cfg.MaxSpeed = d.F64()
	st.Cfg.DupRadius = d.F64()
	st.Cfg.AverageDups = d.Bool()
	st.Seq = d.U64()
	st.MaxRelSeq = d.U64()
	n := int(d.U32())
	if d.Err == nil && n > maxRepairPending {
		return nil, fmt.Errorf("traj: repair state declares %d pending fixes (max %d)", n, maxRepairPending)
	}
	// Check the declared fixes against the bytes left before allocating
	// for them, so a short blob cannot drive a large allocation.
	if rem := len(data) - d.Off; d.Err == nil && n*pendingFixBytes > rem {
		return nil, fmt.Errorf("traj: repair state declares %d pending fixes, %d bytes remain", n, rem)
	}
	if d.Err == nil && n > 0 {
		st.Pending = make([]PendingFixState, n)
		for i := range st.Pending {
			st.Pending[i].P = d.Point()
			st.Pending[i].Seq = d.U64()
		}
	}
	st.HasHeld = d.Bool()
	if st.HasHeld {
		st.HeldFirst = d.Point()
		st.HeldSumX = d.F64()
		st.HeldSumY = d.F64()
		st.HeldN = int(int64(d.U64()))
	}
	st.HasLast = d.Bool()
	if st.HasLast {
		st.Last = d.Point()
	}
	for _, f := range st.Report.fieldPtrs() {
		*f = int(int64(d.U64()))
	}
	if d.Err != nil {
		return nil, fmt.Errorf("traj: decode repair state: %w", d.Err)
	}
	if d.Off != len(data) {
		return nil, fmt.Errorf("traj: repair state has %d trailing bytes", len(data)-d.Off)
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
