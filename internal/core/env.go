package core

import (
	"fmt"
	"math"

	"rlts/internal/buffer"
	"rlts/internal/errm"
	"rlts/internal/geo"
	"rlts/internal/rl"
	"rlts/internal/traj"
)

// unbounded is the index of the final point of a stream, whose end is
// unknown: no skip action can run past it.
const unbounded = math.MaxInt

// scanner is the one value-and-drop step of every MDP: the fill (push),
// the drop with neighbour repair (drop) and the drop entries of the state
// (dropState). The scanning MDP has two drivers: scanEnv, which scans a
// trajectory held in memory, and Streamer, which is fed one point at a
// time. fullEnv, the ++ MDP, pushes the whole trajectory, builds its own
// skip entries and drops through the same step, so Bottom-Up (RLTS++
// always taking action 0) runs it too. The scanner owns the buffer and
// the decision scratch; the drivers own the scan position, the budget and
// what happens between decisions, and dispatch each action themselves —
// a drop is drop(cand[a]), a skip un-appends the offered point with
// buf.RemoveTail.
type scanner struct {
	opts Options
	t    traj.Trajectory // the whole trajectory, for Eq. 12 values and skip look-ahead; nil on a stream
	end  int             // index of the final point: len(t)-1, or unbounded on a stream

	buf  *buffer.Buffer
	cand []*buffer.Entry // the cheapest droppable entries, ascending, of the last state build

	state []float64 // buildState scratch, reused every decision
	mask  []bool    // buildState scratch, reused every decision
}

// newScanner returns a scanner without a buffer; the driver supplies
// one (scanEnv a fresh one per episode, Streamer an empty or restored
// one).
func newScanner(opts Options, t traj.Trajectory, end int) scanner {
	return scanner{
		opts:  opts,
		t:     t,
		end:   end,
		state: make([]float64, opts.StateSize()),
		mask:  make([]bool, opts.NumActions()),
	}
}

// push appends the point with original index i and values the previous
// tail, which has just become interior (Eq. 7). Filling the buffer and
// the tentative append before a decision are both this step; after a
// skip it also refreshes the stale value the un-append left behind.
func (sc *scanner) push(i int, p geo.Point) {
	old := sc.buf.Tail()
	sc.buf.Append(i, p)
	if old != nil && old.Prev() != nil {
		sc.buf.SetValue(old, sc.valueOf(old))
	}
}

// valueOf computes the drop-value of an interior entry: Eq. 1 (buffer-
// local) for the online variant, Eq. 12 (full scanned history) for the
// batch variants.
func (sc *scanner) valueOf(en *buffer.Entry) float64 {
	if sc.opts.Variant == Online {
		return errm.OnlineValue(sc.opts.Measure, en.Prev().P, en.P, en.Next().P)
	}
	return errm.SegmentError(sc.opts.Measure, sc.t, en.Prev().Index, en.Next().Index)
}

// buildState assembles the k lowest values (ascending) plus, for the batch
// Skip variants, the J look-ahead skip errors, together with the legal-
// action mask, for a decision on the buffered tail. The returned slices
// are scanner-owned scratch, valid until the next call: every index is
// rewritten each call, and the trainer's rollout copies states into
// episode storage before stepping.
func (sc *scanner) buildState() ([]float64, []bool) {
	return sc.stateOf(sc.buf.KLowest(sc.opts.K))
}

// stateOf is buildState over a given ascending candidate list of at most
// k droppable entries.
func (sc *scanner) stateOf(cand []*buffer.Entry) ([]float64, []bool) {
	k, j := sc.opts.K, sc.opts.J
	pad := sc.dropState(cand)
	state, mask := sc.state, sc.mask
	withFeatures := sc.opts.Variant != Online && len(state) == k+j
	tail := sc.buf.Tail()
	for s := 1; s <= j; s++ {
		// Skipping s points drops the offered point i = tail.Index and
		// the s-1 after it, and continues the scan at i+s, which must
		// not pass the final point.
		legal := tail.Index+s <= sc.end
		mask[k+s-1] = legal
		if withFeatures {
			if legal {
				// Error of the segment the skip would create: from the old
				// tail across everything up to the continuation point.
				state[k+s-1] = errm.SegmentError(sc.opts.Measure, sc.t, tail.Prev().Index, tail.Index+s)
			} else if s > 1 {
				state[k+s-1] = state[k+s-2]
			} else {
				state[k+s-1] = pad
			}
		}
	}
	return state, mask
}

// dropState makes cand, ascending, the drop candidates and writes the k
// drop entries of the state and the mask: the candidates' values, then
// the last candidate's value (0 without any) as padding with its mask
// bit off. It returns that padding value. Both MDPs' state builds start
// here and add only their own skip entries.
func (sc *scanner) dropState(cand []*buffer.Entry) float64 {
	sc.cand = cand
	var pad float64
	if len(cand) > 0 {
		pad = cand[len(cand)-1].Value()
	}
	for a := 0; a < sc.opts.K; a++ {
		if a < len(cand) {
			sc.state[a], sc.mask[a] = cand[a].Value(), true
		} else {
			sc.state[a], sc.mask[a] = pad, false
		}
	}
	return pad
}

// drop removes d from the buffer and refreshes the values of its two
// former neighbours. The batch variants recompute Eq. 12, which covers
// every dropped point in the span. In the online variant the paper's
// Eqs. 5-6 apply: the fresh Eq. 1 value is maxed with the error of the
// new anchor segment w.r.t. the point just dropped (the only other point
// of the destroyed segments that is still accessible).
func (sc *scanner) drop(d *buffer.Entry) {
	prev, next := sc.buf.Drop(d)
	for _, en := range [2]*buffer.Entry{prev, next} {
		if en.Prev() == nil || en.Next() == nil {
			continue // an endpoint has no value
		}
		v := sc.valueOf(en)
		if sc.opts.Variant == Online {
			if dv := errm.OnlineValue(sc.opts.Measure, en.Prev().P, d.P, en.Next().P); dv > v {
				v = dv
			}
		}
		sc.buf.SetValue(en, v)
	}
}

// episode holds what the two rl.Env implementations, scanEnv and
// fullEnv, share: the scanner step, the budget W, the reward tracker
// (built only when the environment is for training) and whether the
// episode is over.
type episode struct {
	scanner
	w       int
	rewards bool
	trk     *errm.Tracker
	done    bool
}

func newEpisode(t traj.Trajectory, w int, opts Options, rewards bool) episode {
	return episode{scanner: newScanner(opts, t, len(t)-1), w: w, rewards: rewards}
}

// start begins an episode. When the whole trajectory fits the budget
// there is nothing to decide: the episode is over and start reports
// true. Otherwise it pushes the first fill points into a fresh buffer
// sized for capHint.
func (e *episode) start(fill, capHint int) bool {
	e.cand = nil
	e.done = len(e.t) <= e.w
	if e.done {
		return true
	}
	e.buf = buffer.New(capHint)
	for i := 0; i < fill; i++ {
		e.push(i, e.t[i])
	}
	return false
}

// trackedErr is the error the reward tracks (Eq. 8), or 0 when the
// environment computes no rewards.
func (e *episode) trackedErr() float64 {
	if !e.rewards {
		return 0
	}
	return e.trk.Err()
}

// StateSize implements rl.Env.
func (e *episode) StateSize() int { return e.opts.StateSize() }

// NumActions implements rl.Env.
func (e *episode) NumActions() int { return e.opts.NumActions() }

// Kept returns the kept original indices after the episode finished.
func (e *episode) Kept() []int {
	if e.buf == nil {
		// Degenerate episode: everything kept.
		kept := make([]int, len(e.t))
		for i := range kept {
			kept[i] = i
		}
		return kept
	}
	return e.buf.Indices()
}

// scanEnv is the MDP of the scanning variants (RLTS, RLTS-Skip, RLTS+,
// RLTS-Skip+): points are scanned one by one into a W-point buffer and each
// scan forces a decision — drop one of the k cheapest buffered points
// (making room for the incoming one) or, when J > 0, skip the next j
// incoming points outright.
//
// At every scan the incoming point is appended tentatively so that the old
// tail's value (Eq. 7) participates in the state; a skip action un-appends
// it again. Rewards (Eq. 8) are tracked incrementally with errm.Tracker
// and are computed only when the environment is built for training.
type scanEnv struct {
	episode
	i int // original index currently being scanned
}

func newScanEnv(t traj.Trajectory, w int, opts Options, rewards bool) *scanEnv {
	return &scanEnv{episode: newEpisode(t, w, opts, rewards)}
}

// CloneEnv implements rl.EnvCloner: the trajectory is shared read-only,
// everything mutable is rebuilt by Reset, so a fresh env over the same
// inputs is an independent episode generator.
func (e *scanEnv) CloneEnv() rl.Env {
	return newScanEnv(e.t, e.w, e.opts, e.rewards)
}

// Reset implements rl.Env: it refills the buffer with the first W points
// and scans the (W+1)-th, returning the first decision state.
func (e *scanEnv) Reset() ([]float64, []bool, bool) {
	if e.start(e.w, e.w+1) {
		return nil, nil, true
	}
	if e.rewards {
		e.trk = errm.NewTracker(e.opts.Measure, e.t)
		for i := 1; i < e.w; i++ {
			e.trk.ExtendTo(i)
		}
	}
	e.i = e.w
	return e.scan()
}

// scan appends the point at index e.i and builds the decision state.
func (e *scanEnv) scan() ([]float64, []bool, bool) {
	if e.i >= len(e.t) {
		e.done = true
		return nil, nil, true
	}
	e.push(e.i, e.t[e.i])
	if e.rewards && e.trk.Tail() != e.i {
		e.trk.ExtendTo(e.i)
	}
	state, mask := e.buildState()
	return state, mask, false
}

// Step implements rl.Env.
func (e *scanEnv) Step(action int) ([]float64, []bool, float64, bool) {
	if e.done {
		panic("core: Step on finished episode")
	}
	k := e.opts.K
	before := e.trackedErr()
	switch {
	case action < 0 || action >= e.opts.NumActions():
		panic(fmt.Sprintf("core: action %d out of range", action))
	case action < k:
		if action >= len(e.cand) {
			panic(fmt.Sprintf("core: drop action %d has no candidate (masked)", action))
		}
		d := e.cand[action]
		e.drop(d)
		if e.rewards {
			e.trk.Drop(d.Index)
		}
		e.i++
	default:
		s := action - k + 1 // skip s points
		if e.i+s > e.end {
			panic(fmt.Sprintf("core: skip %d beyond trajectory end (masked)", s))
		}
		e.buf.RemoveTail() // un-append the tentatively inserted t[i]
		if e.rewards {
			e.trk.ExtendTo(e.i + s)
			e.trk.Drop(e.i)
		}
		e.i += s
	}
	reward := before - e.trackedErr()
	state, mask, done := e.scan()
	return state, mask, reward, done
}

// ProgressKey implements rl.Progresser: the scan index. Episodes that
// skipped different numbers of points align at equal trajectory
// positions, which is what makes their returns comparable.
func (e *scanEnv) ProgressKey() int { return e.i }

var _ rl.Env = (*scanEnv)(nil)
