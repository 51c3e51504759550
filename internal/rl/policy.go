package rl

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"rlts/internal/nn"
)

// Policy is a stochastic softmax policy pi_theta(a|s) parameterized by a
// small MLP (Eq. 10). It owns the network together with its architecture
// spec so it can be cloned and serialized.
//
// A Policy is not safe for concurrent use: the network layers and the
// probability/gradient scratch buffers are reused across calls. The
// parallel trainer and concurrent inference wrappers give every worker
// its own clone.
type Policy struct {
	Spec nn.MLPSpec
	Net  *nn.Network

	probs []float64 // forward scratch shared by probsInto callers
	grad  []float64 // backward scratch for accumulateStep/accumulateEntropy

	fallbacks int // Act decisions the fast forward could not certify, since the last TakeFallbacks
}

// NewPolicy builds a policy network for the given state and action sizes
// following the paper's architecture: one hidden layer of hidden units
// with batch normalization before a tanh activation, then a softmax
// output over the actions.
func NewPolicy(stateSize, numActions, hidden int, r *rand.Rand) (*Policy, error) {
	spec := nn.MLPSpec{
		In:         stateSize,
		Hidden:     []int{hidden},
		Out:        numActions,
		BatchNorm:  true,
		Activation: "tanh",
	}
	net, err := nn.NewMLP(spec, r)
	if err != nil {
		return nil, err
	}
	return &Policy{Spec: spec, Net: net}, nil
}

// Probs returns pi(.|state) restricted to the legal actions. train
// selects training-time forward behaviour (batch-norm statistics update).
// The returned slice is freshly allocated; hot paths inside the package
// use probsInto instead.
func (p *Policy) Probs(state []float64, mask []bool, train bool) []float64 {
	out := make([]float64, p.Spec.Out)
	copy(out, p.probsInto(state, mask, train))
	return out
}

// probsInto is Probs writing into the policy's scratch buffer: zero
// allocations per call, but the result is only valid until the next
// forward on this policy.
func (p *Policy) probsInto(state []float64, mask []bool, train bool) []float64 {
	return p.softmax(p.Net.Forward(state, train), mask)
}

// softmax writes the (masked) softmax of logits into the policy's
// scratch buffer.
func (p *Policy) softmax(logits []float64, mask []bool) []float64 {
	if p.probs == nil {
		p.probs = make([]float64, len(logits))
	}
	if mask == nil {
		return nn.SoftmaxInto(p.probs, logits)
	}
	return nn.MaskedSoftmaxInto(p.probs, logits, mask)
}

// Act selects an action for state: sampled from the distribution when
// sample is true (the paper's online-mode inference), greedy argmax
// otherwise (batch-mode inference); a sampled decision consumes exactly
// one r.Float64(). The decision is always the exact forward's: Act takes
// the fused forward's decision when its logit bounds prove it, and
// otherwise runs the exact forward with the same draw and counts a
// fallback (DESIGN.md §13).
func (p *Policy) Act(state []float64, mask []bool, sample bool, r *rand.Rand) int {
	var u float64
	if sample {
		u = r.Float64()
	}
	logits, bound := p.Net.ForwardBounded(state)
	if a, ok := p.certified(logits, bound, mask, sample, u); ok {
		return a
	}
	p.fallbacks++
	probs := p.probsInto(state, mask, false)
	if sample {
		return sampleAt(probs, u)
	}
	return GreedyAction(probs)
}

// certified returns the exact forward's decision if the fused logits and
// their bounds prove it. Greedy: the top legal logit leads every other
// legal one by more than both bounds plus 1e-12, so the exact softmax's
// top probability is strictly largest. Sampled: u lies farther than d
// from every legal running sum of the fused probabilities up to the one
// it selects, in SampleAction's order; d is expm1(2·max bound), the most
// a running sum can move under those logit shifts, plus both softmaxes'
// rounding.
func (p *Policy) certified(logits, bound []float64, mask []bool, sample bool, u float64) (int, bool) {
	top, bmax := -1, 0.0
	for i, z := range logits {
		if mask != nil && !mask[i] {
			continue
		}
		if !(math.Abs(z) <= math.MaxFloat64 && bound[i] <= math.MaxFloat64) {
			return 0, false
		}
		if top < 0 || z > logits[top] {
			top = i
		}
		bmax = max(bmax, bound[i])
	}
	if top < 0 {
		return 0, false
	}
	if !sample {
		for i, z := range logits {
			if i != top && (mask == nil || mask[i]) && !(logits[top]-z > bound[top]+bound[i]+1e-12) {
				return 0, false
			}
		}
		return top, true
	}
	probs := p.softmax(logits, mask)
	d := math.Expm1(2*bmax)*(1+0x1p-30) + float64(8*len(probs)+32)*0x1p-53
	var acc float64
	for i, pi := range probs {
		if mask != nil && !mask[i] {
			continue
		}
		acc += pi
		if u < acc-d {
			return i, true
		}
		if u <= acc+d {
			return 0, false
		}
	}
	return 0, false
}

// TakeFallbacks returns and resets the count of Act decisions that ran
// the exact forward; core.SimplifyCtx and the Streamer flush it once per
// run or flush.
func (p *Policy) TakeFallbacks() int {
	n := p.fallbacks
	p.fallbacks = 0
	return n
}

// Clone returns an independent deep copy of the policy: the same
// weights and statistics, with its own forward scratch.
func (p *Policy) Clone() *Policy {
	return &Policy{Spec: p.Spec, Net: nn.CloneMLP(p.Spec, p.Net)}
}

// Save writes the policy to w in the nn JSON format.
func (p *Policy) Save(w io.Writer) error { return nn.SaveMLP(w, p.Spec, p.Net) }

// LoadPolicy reads a policy written by Save.
func LoadPolicy(r io.Reader) (*Policy, error) {
	spec, net, err := nn.LoadMLP(r)
	if err != nil {
		return nil, fmt.Errorf("rl: load policy: %w", err)
	}
	return &Policy{Spec: spec, Net: net}, nil
}

// accumulateEntropy adds the gradient of -beta * H(pi(.|s)) (descent on
// the negated entropy bonus): dH/dz_i = -p_i * (ln p_i + H), so the
// accumulated gradient is beta * p_i * (ln p_i + H). Masked actions have
// p_i = 0 and contribute nothing.
func (p *Policy) accumulateEntropy(state []float64, mask []bool, beta float64) {
	probs := p.probsInto(state, mask, false)
	var h float64
	for _, pi := range probs {
		if pi > 0 {
			h -= pi * math.Log(pi)
		}
	}
	grad := p.gradScratch(len(probs))
	for i, pi := range probs {
		grad[i] = 0
		if pi > 0 {
			grad[i] = beta * pi * (math.Log(pi) + h)
		}
	}
	p.Net.Backward(grad)
}

// accumulateStep adds the REINFORCE gradient contribution of one step:
// d/dtheta [ -Rnorm * ln pi(a|s) ], evaluated at the stored state.
// Gradients are accumulated into the network; the caller applies the
// optimizer step after the episode.
func (p *Policy) accumulateStep(state []float64, mask []bool, action int, coeff float64) {
	probs := p.probsInto(state, mask, false)
	grad := p.gradScratch(len(probs))
	for i, pi := range probs {
		grad[i] = coeff * pi
	}
	grad[action] -= coeff
	p.Net.Backward(grad)
}

// gradScratch returns the reusable output-gradient buffer, allocating it
// on first use. Callers overwrite every element before Backward.
func (p *Policy) gradScratch(n int) []float64 {
	if len(p.grad) < n {
		p.grad = make([]float64, n)
	}
	return p.grad[:n]
}
