// Package rl provides the reinforcement-learning machinery shared by all
// RLTS variants: a Markov-decision-process environment interface, a
// stochastic softmax policy backed by package nn, and a REINFORCE trainer
// (policy gradient with mean/std return normalization, the "PNet" method of
// the paper's Eq. 11).
package rl

import (
	"math"
	"math/rand"
)

// Env is a Markov decision process as seen by the trainer. A single Env
// value models one episode at a time: Reset starts a new episode, Step
// advances it.
//
// The mask returned with each state marks the currently legal actions
// (e.g. a skip action is illegal when fewer points remain than it would
// skip). Implementations must return at least one legal action whenever
// done is false.
type Env interface {
	// Reset starts a new episode and returns the first state. If the
	// episode is degenerate (nothing to decide), done is true and the
	// trainer records an empty episode.
	Reset() (state []float64, mask []bool, done bool)
	// Step performs the action sampled for the last returned state and
	// yields the resulting reward and next state.
	Step(action int) (state []float64, mask []bool, reward float64, done bool)
	// StateSize returns the fixed dimensionality of states.
	StateSize() int
	// NumActions returns the fixed size of the action space.
	NumActions() int
}

// Episode is the trace of one rollout: parallel slices of states, masks,
// actions and rewards. Keys, when present, give each step a progress key
// (see Progresser) used to align returns across episodes of different
// lengths.
type Episode struct {
	States  [][]float64
	Masks   [][]bool
	Actions []int
	Rewards []float64
	Keys    []int
}

// Progresser is an optional Env extension. When implemented, the rollout
// records ProgressKey before every step, and the trainer normalizes
// returns across episodes at equal *progress* rather than equal step
// index. This matters for MDPs whose actions advance the episode by
// variable amounts (the skip actions of RLTS-Skip): comparing the return
// "after t decisions" across episodes that are at different points of the
// trajectory mixes incomparable futures, while comparing "at scan
// position i" does not.
type Progresser interface {
	// ProgressKey identifies the episode's current position; it must be
	// strictly monotone within an episode.
	ProgressKey() int
}

// EnvCloner is an optional Env extension enabling parallel rollouts: a
// clone is an independent environment over the same underlying task, so
// several episodes can run concurrently. Clones may share read-only data
// (e.g. the trajectory) but no mutable state. Environments that do not
// implement it are rolled out by a single worker (the rest of the
// training pipeline still parallelizes).
type EnvCloner interface {
	CloneEnv() Env
}

// Len returns the number of transitions in the episode.
func (e *Episode) Len() int { return len(e.Actions) }

// reset truncates the episode for reuse, keeping every backing array so a
// new rollout of similar length allocates nothing.
func (e *Episode) reset() {
	e.States = e.States[:0]
	e.Masks = e.Masks[:0]
	e.Actions = e.Actions[:0]
	e.Rewards = e.Rewards[:0]
	e.Keys = e.Keys[:0]
}

// pushStep records a decision, copying state and mask into episode-owned
// storage (environments are free to reuse their state buffers between
// steps — the copy must therefore happen before Env.Step). Slices retained
// from a previous rollout via reset are reused when large enough. The
// reward is appended separately once Step reveals it.
func (e *Episode) pushStep(state []float64, mask []bool, action int) {
	n := len(e.States)
	if n < cap(e.States) {
		e.States = e.States[:n+1]
		e.States[n] = append(e.States[n][:0], state...)
	} else {
		e.States = append(e.States, append([]float64(nil), state...))
	}
	if n < cap(e.Masks) {
		e.Masks = e.Masks[:n+1]
	} else {
		e.Masks = append(e.Masks, nil)
	}
	if mask == nil {
		// A nil mask means "all actions legal" downstream; keep it nil.
		e.Masks[n] = nil
	} else {
		e.Masks[n] = append(e.Masks[n][:0], mask...)
	}
	e.Actions = append(e.Actions, action)
}

// TotalReward returns the undiscounted sum of rewards, which by Eq. 9
// equals minus the final simplification error for the RLTS MDPs.
func (e *Episode) TotalReward() float64 {
	var s float64
	for _, r := range e.Rewards {
		s += r
	}
	return s
}

// returnsInto computes the discounted cumulative returns R_t for each step
// into dst (grown only when too small), so the trainer can reuse one
// buffer per episode slot across batches.
func (e *Episode) returnsInto(dst []float64, gamma float64) []float64 {
	if cap(dst) < len(e.Rewards) {
		dst = make([]float64, len(e.Rewards))
	}
	dst = dst[:len(e.Rewards)]
	var acc float64
	for i := len(e.Rewards) - 1; i >= 0; i-- {
		acc = e.Rewards[i] + gamma*acc
		dst[i] = acc
	}
	return dst
}

// SampleAction draws an action index from the probability vector.
func SampleAction(probs []float64, r *rand.Rand) int {
	return sampleAt(probs, r.Float64())
}

// sampleAt is SampleAction at the uniform draw u: the first action whose
// running probability sum exceeds u.
func sampleAt(probs []float64, u float64) int {
	var acc float64
	last := 0
	for i, p := range probs {
		if p > 0 {
			last = i
		}
		acc += p
		if u < acc {
			return i
		}
	}
	// Floating-point slack: fall back to the last positive-probability
	// action.
	return last
}

// GreedyAction returns the index of the largest probability.
func GreedyAction(probs []float64) int {
	best, bestP := 0, math.Inf(-1)
	for i, p := range probs {
		if p > bestP {
			best, bestP = i, p
		}
	}
	return best
}
