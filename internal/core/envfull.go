package core

import (
	"fmt"

	"rlts/internal/buffer"
	"rlts/internal/errm"
	"rlts/internal/rl"
	"rlts/internal/traj"
)

// fullEnv is the MDP of the ++ variants (RLTS++, RLTS-Skip++): the buffer
// has variable size and initially holds the whole trajectory; every step
// drops points until only W remain. States use the Eq. 12 value definition
// over the candidate's original span.
//
// For RLTS-Skip++ the paper states that "an action of skipping j points
// means dropping j points" without fixing which; we interpret it as
// dropping the j lowest-valued points in one decision (saving j-1 state
// constructions, which is exactly the efficiency the skip actions buy),
// and expose the j-th lowest value as the corresponding state feature.
// DESIGN.md records this interpretation.
type fullEnv struct {
	episode
}

func newFullEnv(t traj.Trajectory, w int, opts Options, rewards bool) *fullEnv {
	return &fullEnv{newEpisode(t, w, opts, rewards)}
}

// CloneEnv implements rl.EnvCloner: the trajectory is shared read-only,
// everything mutable is rebuilt by Reset.
func (e *fullEnv) CloneEnv() rl.Env {
	return newFullEnv(e.t, e.w, e.opts, e.rewards)
}

// Reset implements rl.Env: it pushes the entire trajectory into the
// buffer, which values every interior point.
func (e *fullEnv) Reset() ([]float64, []bool, bool) {
	if e.start(len(e.t), len(e.t)) {
		return nil, nil, true
	}
	if e.rewards {
		e.trk = errm.NewFullTracker(e.opts.Measure, e.t)
	}
	state, mask := e.buildState()
	return state, mask, false
}

// buildState offers the max(k, j) lowest values: the first k as drop
// actions, and the s-th as the feature of the skip action that drops the
// s lowest, legal while s points remain to be dropped.
func (e *fullEnv) buildState() ([]float64, []bool) {
	k, j := e.opts.K, e.opts.J
	pad := e.dropState(e.buf.KLowest(max(k, j)))
	budget := e.buf.Size() - e.w // how many more points must be dropped
	for s := 1; s <= j; s++ {
		e.mask[k+s-1] = s <= len(e.cand) && s <= budget
		e.state[k+s-1] = pad
		if s <= len(e.cand) {
			e.state[k+s-1] = e.cand[s-1].Value()
		}
	}
	// A single drop must always be possible while the episode runs.
	if budget > 0 && len(e.cand) == 0 {
		panic("core: no droppable candidates with budget remaining")
	}
	return e.state, e.mask
}

// Step implements rl.Env.
func (e *fullEnv) Step(action int) ([]float64, []bool, float64, bool) {
	if e.done {
		panic("core: Step on finished episode")
	}
	k := e.opts.K
	before := e.trackedErr()
	var todo []*buffer.Entry
	switch {
	case action < 0 || action >= e.opts.NumActions():
		panic(fmt.Sprintf("core: action %d out of range", action))
	case action < k:
		if action >= len(e.cand) {
			panic(fmt.Sprintf("core: drop action %d has no candidate (masked)", action))
		}
		todo = e.cand[action : action+1]
	default:
		s := action - k + 1
		if s > len(e.cand) || s > e.buf.Size()-e.w {
			panic(fmt.Sprintf("core: skip action %d illegal (masked)", s))
		}
		todo = e.cand[:s]
	}
	for _, d := range todo {
		e.drop(d)
		if e.rewards {
			e.trk.Drop(d.Index)
		}
	}
	reward := before - e.trackedErr()
	if e.buf.Size() <= e.w {
		e.done = true
		return nil, nil, reward, true
	}
	state, mask := e.buildState()
	return state, mask, reward, false
}

// ProgressKey implements rl.Progresser: how many points have been dropped
// so far. Multi-drop skip actions advance it by more than one, so episodes
// align at equal remaining-buffer sizes.
func (e *fullEnv) ProgressKey() int { return len(e.t) - e.buf.Size() }

var _ rl.Env = (*fullEnv)(nil)

// keptEnv is the common read-out interface of both environments.
type keptEnv interface {
	rl.Env
	Kept() []int
}

// newEnv builds the environment matching the variant.
func newEnv(t traj.Trajectory, w int, opts Options, rewards bool) keptEnv {
	if opts.Variant == PlusPlus {
		return newFullEnv(t, w, opts, rewards)
	}
	return newScanEnv(t, w, opts, rewards)
}
