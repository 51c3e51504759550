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
	logits := p.Net.Forward(state, train)
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
// otherwise (batch-mode inference).
func (p *Policy) Act(state []float64, mask []bool, sample bool, r *rand.Rand) int {
	probs := p.probsInto(state, mask, false)
	if sample {
		return SampleAction(probs, r)
	}
	return GreedyAction(probs)
}

// Clone returns an independent deep copy of the policy, inheriting the
// source's inference-kernel selection (nn.CloneMLP carries it over).
func (p *Policy) Clone() *Policy {
	return &Policy{Spec: p.Spec, Net: nn.CloneMLP(p.Spec, p.Net)}
}

// SetKernel selects the inference kernel of the policy network:
// nn.KernelExact (the default, bit-identical to training forwards) or
// nn.KernelFast (fused approximate kernels with the bounded error
// contract of nn/fastmath.go). Fast policies are inference-only — the
// network panics on Backward after a fast forward — so training code
// must never select it.
func (p *Policy) SetKernel(k nn.Kernel) { p.Net.SetKernel(k) }

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
