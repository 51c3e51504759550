package core

// Durable streamer state: ExportState captures everything a Streamer
// needs to continue bit-identically in another process — the buffer's
// full internal layout (list order, drop values, exact heap slots), the
// seen/skip counters, the last accepted point and the sampling RNG's
// position — and ResumeStreamer rebuilds a streamer from it. The binary
// codec (AppendBinary/DecodeStreamerState) is the versioned wire format
// the HTTP session layer spills to disk; the decoder is total (it
// errors on any malformed input, never panics or half-restores).
//
// RNG treatment: math/rand exposes no state serialization, so the
// export records how many Float64 draws the policy has consumed —
// exactly one per sampled decision — and ResumeStreamer fast-forwards a
// freshly seeded source that many steps. This is the same position-
// counter treatment the training checkpoints give the per-episode RNG
// streams (rl.Checkpoint.EpSeq). The replay is O(draws) but a draw is a
// few nanoseconds, so even a million-decision stream rehydrates in
// milliseconds.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"rlts/internal/buffer"
	"rlts/internal/codec"
	"rlts/internal/geo"
	"rlts/internal/rl"
)

// StreamerStateVersion guards the streamer-state wire format; bump on
// incompatible changes. Version 2 added ErrEst (the online error
// estimate the fleet allocator reads) and relaxed the buffer-size
// invariants for budgets resized by SetBudget.
//
// Version-1 states still decode, so sessions spilled before the upgrade
// rehydrate instead of being quarantined. They decode with ErrEst 0: the
// drop values seen before the upgrade were never recorded, so the
// estimate restarts there and folds in every drop after resume, like a
// fresh streamer's. Everything the decisions depend on is in v1, so the
// resumed stream simplifies exactly as the uninterrupted one would.
const StreamerStateVersion = 2

// streamerStateMinVersion is the oldest wire version DecodeStreamerState
// accepts.
const streamerStateMinVersion = 1

// StreamerState is the complete resumable state of a Streamer. The
// policy and Options are not part of it: they are process-level
// configuration the owner re-supplies at resume (and must supply
// unchanged for bit-identical continuation, just as rl.ResumePolicy
// refuses a changed training config).
type StreamerState struct {
	W       int
	Sample  bool
	Seen    int // points pushed so far
	Skip    int // pending pushes to drop silently
	Skipped int // points ever swallowed by skip actions
	Last    geo.Point
	HasLast bool
	Draws   uint64  // sampling RNG position (Float64 values consumed)
	ErrEst  float64 // running max drop value (Streamer.ErrEst)
	Entries []buffer.EntryState
}

// ExportState captures the streamer's resumable state. It flushes the
// pending metric deltas first so nothing is unaccounted if the streamer
// is discarded after the export (the spill path does exactly that).
func (s *Streamer) ExportState() *StreamerState {
	s.FlushMetrics()
	return &StreamerState{
		W:       s.w,
		Sample:  s.sample,
		Seen:    s.n,
		Skip:    s.skip,
		Skipped: s.nskipped,
		Last:    s.last,
		HasLast: s.hasLast,
		Draws:   s.draws,
		ErrEst:  s.errEst,
		Entries: s.buf.Export(),
	}
}

// ResumeStreamer rebuilds a streamer from an exported state. p and opts
// must be the policy and options of the originating streamer; r must be
// a rand source freshly seeded with the original seed when st.Sample is
// set (ResumeStreamer fast-forwards it to the recorded position), and
// may be nil otherwise. The state is validated in full before anything
// is built, so a corrupted state yields an error, never a streamer that
// panics later.
func ResumeStreamer(p *rl.Policy, opts Options, st *StreamerState, r *rand.Rand) (*Streamer, error) {
	s, err := newStreamer(p, st.W, opts, st.Sample, r)
	if err != nil {
		return nil, err
	}
	if err := st.validate(opts); err != nil {
		return nil, err
	}
	if s.buf, err = buffer.Restore(st.Entries, st.W+1); err != nil {
		return nil, fmt.Errorf("core: resume streamer: %w", err)
	}
	if st.Sample {
		for i := uint64(0); i < st.Draws; i++ {
			r.Float64()
		}
	}
	s.n, s.skip, s.nskipped = st.Seen, st.Skip, st.Skipped
	s.last, s.hasLast = st.Last, st.HasLast
	s.draws, s.errEst = st.Draws, st.ErrEst
	return s, nil
}

// validate checks the state's internal consistency against the streamer
// invariants: the buffer never holds more points than the budget or than
// were pushed; trajectory endpoints are buffered and never droppable;
// buffered points are finite with strictly increasing timestamps and
// indices; the last accepted point caps the buffered tail. W and the
// buffer size are related by inequalities, not equalities: SetBudget can
// leave a mid-stream buffer below a freshly raised cap (it refills), so
// the pre-fleet "exactly W after fill" invariant no longer holds.
func (st *StreamerState) validate(opts Options) error {
	if st.W < 2 {
		return fmt.Errorf("core: streamer state: budget W must be >= 2, got %d", st.W)
	}
	if st.Seen < 0 || st.Skip < 0 || st.Skipped < 0 {
		return fmt.Errorf("core: streamer state: negative counter (seen %d, skip %d, skipped %d)",
			st.Seen, st.Skip, st.Skipped)
	}
	if st.Skip > opts.J {
		return fmt.Errorf("core: streamer state: pending skip %d exceeds J = %d", st.Skip, opts.J)
	}
	if !st.Sample && st.Draws != 0 {
		return fmt.Errorf("core: streamer state: %d RNG draws recorded without sampling", st.Draws)
	}
	if math.IsNaN(st.ErrEst) || math.IsInf(st.ErrEst, 0) || st.ErrEst < 0 {
		return fmt.Errorf("core: streamer state: error estimate %g out of range", st.ErrEst)
	}
	if len(st.Entries) > st.W {
		return fmt.Errorf("core: streamer state: %d points buffered exceed budget W = %d",
			len(st.Entries), st.W)
	}
	if len(st.Entries) > st.Seen {
		return fmt.Errorf("core: streamer state: %d points buffered of %d seen",
			len(st.Entries), st.Seen)
	}
	if want := min(st.Seen, 2); len(st.Entries) < want {
		return fmt.Errorf("core: streamer state: %d points buffered with %d seen (endpoints are never dropped)",
			len(st.Entries), st.Seen)
	}
	// The buffered head is the simplification's first endpoint and is
	// never droppable. (The tail MAY carry a stale heap slot: a skip
	// action un-appends the point behind it and the former predecessor
	// keeps its value until the next scan — see buffer.RemoveTail.)
	if len(st.Entries) > 0 && st.Entries[0].HeapPos != -1 {
		return fmt.Errorf("core: streamer state: buffered head claims heap slot %d", st.Entries[0].HeapPos)
	}
	if st.Seen > 0 && !st.HasLast {
		return fmt.Errorf("core: streamer state: %d points seen but no last point", st.Seen)
	}
	if st.HasLast && !st.Last.IsFinite() {
		return fmt.Errorf("core: streamer state: non-finite last point")
	}
	prevIdx, prevT := -1, math.Inf(-1)
	for i, es := range st.Entries {
		if !es.P.IsFinite() {
			return fmt.Errorf("core: streamer state: non-finite point at buffer position %d", i)
		}
		if math.IsNaN(es.Value) || math.IsInf(es.Value, 0) {
			return fmt.Errorf("core: streamer state: non-finite drop value at buffer position %d", i)
		}
		if es.Index <= prevIdx || es.Index >= st.Seen {
			return fmt.Errorf("core: streamer state: buffer index %d out of order at position %d (seen %d)",
				es.Index, i, st.Seen)
		}
		if es.P.T <= prevT {
			return fmt.Errorf("core: streamer state: buffer timestamps not increasing at position %d", i)
		}
		prevIdx, prevT = es.Index, es.P.T
	}
	if len(st.Entries) > 0 && st.Last.T < prevT {
		return fmt.Errorf("core: streamer state: last point precedes the buffered tail")
	}
	return nil
}

// Binary layout (all little-endian):
//
//	u32  version
//	u8   flags (bit 0 sample, bit 1 hasLast)
//	u32  w
//	u64  seen, skip, skipped, draws
//	f64  errEst (absent in version 1)
//	f64  last.X, last.Y, last.T
//	u32  entry count
//	per entry: u64 index, f64 x, f64 y, f64 t, f64 value, i64 heapPos
const streamerEntryBytes = 8 * 6

// AppendBinary appends the versioned wire encoding of the state to b.
func (st *StreamerState) AppendBinary(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, StreamerStateVersion)
	var flags byte
	if st.Sample {
		flags |= 1
	}
	if st.HasLast {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(st.W))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Seen))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Skip))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Skipped))
	b = binary.LittleEndian.AppendUint64(b, st.Draws)
	b = codec.AppendF64(b, st.ErrEst)
	b = codec.AppendPoint(b, st.Last)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.Entries)))
	for _, e := range st.Entries {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Index))
		b = codec.AppendPoint(b, e.P)
		b = codec.AppendF64(b, e.Value)
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(e.HeapPos)))
	}
	return b
}

// DecodeStreamerState decodes a state written by AppendBinary. The
// decoder is total: any truncated, oversized or malformed input yields
// an error. It performs wire-level validation only; semantic validation
// happens in ResumeStreamer, so a decoded state is not necessarily a
// usable one.
func DecodeStreamerState(data []byte) (*StreamerState, error) {
	d := codec.Reader{Buf: data}
	ver := d.U32()
	if d.Err == nil && (ver < streamerStateMinVersion || ver > StreamerStateVersion) {
		return nil, fmt.Errorf("core: streamer state version %d, want %d..%d",
			ver, streamerStateMinVersion, StreamerStateVersion)
	}
	flags := d.U8()
	st := &StreamerState{
		Sample:  flags&1 != 0,
		HasLast: flags&2 != 0,
	}
	st.W = int(d.U32())
	st.Seen = d.Count()
	st.Skip = d.Count()
	st.Skipped = d.Count()
	st.Draws = d.U64()
	if ver >= 2 {
		st.ErrEst = d.F64()
	}
	st.Last = d.Point()
	n := d.U32()
	if d.Err != nil {
		return nil, fmt.Errorf("core: decode streamer state: %w", d.Err)
	}
	if rem := len(data) - d.Off; int(n)*streamerEntryBytes != rem {
		return nil, fmt.Errorf("core: decode streamer state: %d entries declared, %d bytes remain", n, rem)
	}
	st.Entries = make([]buffer.EntryState, n)
	for i := range st.Entries {
		e := &st.Entries[i]
		e.Index = d.Count()
		e.P = d.Point()
		e.Value = d.F64()
		e.HeapPos = int(int64(d.U64()))
	}
	if d.Err != nil {
		return nil, fmt.Errorf("core: decode streamer state: %w", d.Err)
	}
	return st, nil
}
