package core

import (
	"fmt"
	"math/rand"

	"rlts/internal/buffer"
	"rlts/internal/geo"
	"rlts/internal/obs"
	"rlts/internal/rl"
)

// Streamer is the push-based online interface of RLTS / RLTS-Skip: points
// are fed one at a time, as a GPS sensor produces them, and the W-point
// buffer always holds the current simplification of everything seen so
// far. This is the deployment shape of the paper's online mode: a
// Streamer and the slice-based Simplify are two drivers of one scanning
// MDP, running the same per-point step (scanner) — fill, tentative
// append, state build, drop with neighbour repair — so on the same
// points, policy and RNG stream they take the same decisions.
//
// Only the Online variant is streamable: the batch variants' states need
// access to dropped points or the whole trajectory. Skip actions work on a
// stream too: a skip of j discards the current and the next j-1 pushed
// points unseen. Since a stream has no known end (its scanner's end is
// unbounded), a skip may swallow what turns out to be the final point;
// Snapshot therefore appends the most recent point when it is not
// buffered, preserving the invariant that a simplification ends at the
// last observed point.
type Streamer struct {
	scanner

	w      int
	p      *rl.Policy
	sample bool
	r      *rand.Rand

	n        int // points pushed so far
	skip     int // pending pushes to drop silently
	nskipped int // points ever swallowed by skip actions
	last     geo.Point
	hasLast  bool

	// errEst is the online estimate of the simplification error introduced
	// so far: the running maximum of the drop value (Eq. 1) each removed
	// point carried at the moment it was dropped — by a policy action or a
	// budget shrink. It is the same per-point estimate STTrace accumulates
	// and the best obtainable without retaining the original stream; points
	// swallowed by skip actions are discarded unseen and cannot contribute
	// (the algorithm itself has no value for them either).
	errEst float64

	// draws counts the Float64 values consumed from r: the sampling RNG's
	// position. A stream resumed from ExportState re-derives the identical
	// stream of future draws by fast-forwarding a freshly seeded source
	// this many steps (the checkpoint treatment rl gives EpSeq, applied to
	// streams).
	draws uint64

	// Unflushed metric deltas: plain ints so Push costs nothing extra;
	// FlushMetrics publishes them as two atomic adds into met.
	met              *coreMetricsSet
	unflushedPushed  int
	unflushedSkipped int
}

// NewStreamer creates a streaming simplifier with buffer budget w.
// sample selects stochastic action selection (the paper's online-mode
// default); r may be nil when sample is false.
func NewStreamer(p *rl.Policy, w int, opts Options, sample bool, r *rand.Rand) (*Streamer, error) {
	s, err := newStreamer(p, w, opts, sample, r)
	if err != nil {
		return nil, err
	}
	s.buf = buffer.New(w + 1)
	return s, nil
}

// newStreamer validates a streamer configuration and returns a streamer
// without a buffer; NewStreamer gives it an empty one, ResumeStreamer a
// restored one.
func newStreamer(p *rl.Policy, w int, opts Options, sample bool, r *rand.Rand) (*Streamer, error) {
	if p == nil {
		return nil, fmt.Errorf("core: streamer needs a policy")
	}
	if err := checkRun(opts, p, w, unbounded, sample, r); err != nil {
		return nil, err
	}
	if opts.Variant != Online {
		return nil, fmt.Errorf("core: only the Online variant can stream, got %s", opts.Name())
	}
	return &Streamer{
		scanner: newScanner(opts, nil, unbounded),
		w:       w,
		p:       p,
		sample:  sample,
		r:       r,
		met:     coreMetrics(),
	}, nil
}

// UseRegistry redirects this streamer's metrics (points pushed/skipped,
// buffer fill) from obs.Default() into reg. The HTTP session manager
// calls it right after NewStreamer so session metrics land in the
// registry its /metrics endpoint serves (Config.Metrics).
func (s *Streamer) UseRegistry(reg *obs.Registry) {
	s.met = coreMetricsFor(reg)
}

// Push feeds the next point of the stream. Observations that are not
// finite or whose timestamp does not advance past the previous push are
// discarded: the streamer's output contract (Snapshot is always a valid
// trajectory — finite points, strictly increasing timestamps) cannot be
// met otherwise, and for a GPS feed dropping a duplicate or out-of-order
// fix is the only sensible interpretation. Callers that need rejections
// surfaced (the HTTP session layer) validate before pushing.
func (s *Streamer) Push(pt geo.Point) {
	if !pt.IsFinite() || (s.hasLast && pt.T <= s.last.T) {
		return
	}
	s.last, s.hasLast = pt, true
	s.unflushedPushed++
	i := s.n
	s.n++
	if s.skip > 0 {
		s.skip--
		s.nskipped++
		s.unflushedSkipped++
		return
	}
	// Fill while the buffer is below budget. Size, not points-pushed,
	// is the criterion: after SetBudget grows W the buffer refills to the
	// new cap (for a fixed-budget streamer the two are equivalent — size
	// equals pushes during fill and equals W after).
	filling := s.buf.Size() < s.w
	s.push(i, pt)
	if filling {
		return
	}
	state, mask := s.buildState()
	a := s.p.Act(state, mask, s.sample, s.r)
	if s.sample {
		s.draws++ // Act consumes exactly one Float64 per sampled decision
	}
	if a < s.opts.K {
		s.evict(s.cand[a])
		return
	}
	// Skip action: drop the point just pushed and the next (a-K) points.
	s.buf.RemoveTail()
	s.skip = a - s.opts.K
}

// evict drops d with neighbour repair and folds its value into errEst.
func (s *Streamer) evict(d *buffer.Entry) {
	if v := d.Value(); v > s.errEst {
		s.errEst = v
	}
	s.drop(d)
}

// SetBudget changes the streamer's storage budget W. Growing is free:
// the cap is raised and the buffer refills as the stream advances.
// Shrinking evicts the lowest-valued droppable points immediately — the
// buffer's value heap (the machinery behind KLowest) already orders them
// — repairing neighbour values after each eviction exactly as a policy
// drop would, so the remaining simplification stays consistent. The
// fleet allocator calls this on rebalance; it is deterministic, and the
// evicted values fold into ErrEst like any other drop.
func (s *Streamer) SetBudget(w int) error {
	if w < 2 {
		return fmt.Errorf("core: budget W must be >= 2, got %d", w)
	}
	s.w = w
	for s.buf.Size() > w {
		e := s.lowestInterior(1)
		if len(e) == 0 {
			// Only endpoints remain; size is <= 2 <= w, unreachable.
			break
		}
		s.evict(e[0])
	}
	return nil
}

// lowestInterior returns the k lowest-valued droppable entries in
// ascending order. Right after a skip the buffered tail still holds a
// stale heap slot until the next push refreshes it (buffer.RemoveTail),
// but an endpoint is never droppable, so it is passed over. The tail is
// the only such entry, so KLowest(k+1), whose first k are KLowest(k)'s,
// holds the answer.
func (s *Streamer) lowestInterior(k int) []*buffer.Entry {
	cand := s.buf.KLowest(k + 1)
	for i, c := range cand {
		if c.Next() == nil {
			cand = append(cand[:i], cand[i+1:]...)
			break
		}
	}
	if len(cand) > k {
		cand = cand[:k]
	}
	return cand
}

// Budget returns the current storage budget W.
func (s *Streamer) Budget() int { return s.w }

// ErrEst returns the online estimate of the simplification error
// introduced so far: the running maximum of the drop values of every
// point removed from the buffer (policy drops and budget shrinks). It is
// 0 while nothing has been dropped. This is an estimate computed from
// buffered neighbours at drop time, not an exact max-link recomputation
// against the original stream — the streamer does not retain the
// original, by design.
func (s *Streamer) ErrEst() float64 { return s.errEst }

// PolicyPressure returns the trained policy's value signal for budget
// allocation: the probability-weighted drop value of the next decision,
// sum over drop actions of pi(a|state) * state[a]. A session whose
// cheapest droppable points are expensive — and whose policy would still
// have to drop one — reports high pressure; one full of near-collinear
// points reports pressure near zero. Returns 0 while the buffer is
// below budget (no decision is pending). Reading probabilities consumes
// no RNG draws, so calling this never perturbs a sampled stream.
func (s *Streamer) PolicyPressure() float64 {
	if s.buf.Size() < s.w {
		return 0
	}
	cand := s.lowestInterior(s.opts.K)
	if len(cand) == 0 {
		return 0
	}
	state, mask := s.stateOf(cand)
	probs := s.p.Probs(state, mask, false)
	var v float64
	for a := range cand {
		v += probs[a] * state[a]
	}
	return v
}

// Seen returns the number of points pushed so far.
func (s *Streamer) Seen() int { return s.n }

// Skipped returns the number of points ever swallowed by skip actions.
func (s *Streamer) Skipped() int { return s.nskipped }

// BufferSize returns the number of points currently buffered.
func (s *Streamer) BufferSize() int { return s.buf.Size() }

// Last returns the most recent accepted point and whether one exists.
// Callers that validate pushes against cross-push ordering (the HTTP
// session layer) read the boundary from here instead of tracking their
// own copy.
func (s *Streamer) Last() (geo.Point, bool) { return s.last, s.hasLast }

// Snapshot returns the current simplified trajectory. If the most recent
// pushed point is not buffered (it was skipped), it is appended so the
// snapshot always ends at the latest observation. The append is guarded
// by timestamp, not point equality: the extra point is added only when
// its timestamp strictly advances past the buffered tail, so a snapshot
// of a stream with >= 2 accepted points is always a valid input to
// traj.FromPoints (no duplicate timestamps, strictly increasing order).
func (s *Streamer) Snapshot() []geo.Point {
	s.FlushMetrics()
	if s.w > 0 {
		s.met.streamBufferFill.Observe(float64(s.buf.Size()) / float64(s.w))
	}
	pts := s.buf.Points()
	if s.hasLast && (len(pts) == 0 || s.last.T > pts[len(pts)-1].T) {
		pts = append(pts, s.last)
	}
	return pts
}

// FlushMetrics publishes the per-point counters and the policy's
// fallback count accumulated since the last flush to the obs registry.
// Snapshot flushes automatically; owners that retire a streamer without
// a final snapshot (the HTTP session manager's TTL eviction) call it so
// no points go unaccounted.
func (s *Streamer) FlushMetrics() {
	if s.unflushedPushed > 0 {
		s.met.streamPoints.Add(uint64(s.unflushedPushed))
		s.unflushedPushed = 0
	}
	if s.unflushedSkipped > 0 {
		s.met.streamSkipped.Add(uint64(s.unflushedSkipped))
		s.unflushedSkipped = 0
	}
	if n := s.p.TakeFallbacks(); n > 0 {
		s.met.policyFallbacks.Add(uint64(n))
	}
}
