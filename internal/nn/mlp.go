package nn

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
)

// MLPSpec describes the architecture of a small multi-layer perceptron.
// The paper's policy network is {In: k (or k+J), Hidden: [20], Out: k (or
// k+J), BatchNorm: true, Activation: "tanh"}.
type MLPSpec struct {
	In         int    `json:"in"`
	Hidden     []int  `json:"hidden"`
	Out        int    `json:"out"`
	BatchNorm  bool   `json:"batch_norm"`
	Activation string `json:"activation"` // "tanh" (or "", read as tanh)
}

// Validate checks the spec for obvious mistakes.
func (s MLPSpec) Validate() error {
	if s.In <= 0 || s.Out <= 0 {
		return fmt.Errorf("nn: MLPSpec in/out must be positive, got %d/%d", s.In, s.Out)
	}
	for _, h := range s.Hidden {
		if h <= 0 {
			return fmt.Errorf("nn: MLPSpec hidden size %d invalid", h)
		}
	}
	if s.Activation != "" && s.Activation != "tanh" {
		return fmt.Errorf("nn: MLPSpec activation %q unknown", s.Activation)
	}
	return nil
}

// NewMLP constructs the network described by spec, with weights drawn
// from r. The output layer produces raw logits; apply SoftmaxInto (or
// MaskedSoftmaxInto) outside. The parameter view is built here, so
// reading a network (Params, CloneMLP on a shared source) never writes
// it.
func NewMLP(spec MLPSpec, r *rand.Rand) (*Network, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	net := &Network{}
	in := spec.In
	for _, h := range spec.Hidden {
		net.Layers = append(net.Layers, NewDense(in, h, r))
		if spec.BatchNorm {
			net.Layers = append(net.Layers, NewBatchNorm(h))
		}
		net.Layers = append(net.Layers, NewTanh(h))
		in = h
	}
	net.Layers = append(net.Layers, NewDense(in, spec.Out, r))
	for _, l := range net.Layers {
		net.params = append(net.params, l.Params()...)
	}
	return net, nil
}

// savedNet is the JSON wire format for a network: its spec plus the flat
// values of every parameter and the batch-norm running statistics, in
// layer order.
type savedNet struct {
	Spec   MLPSpec     `json:"spec"`
	Params [][]float64 `json:"params"`
	States [][]float64 `json:"states"`
}

// SaveMLP serializes a network built by NewMLP together with its spec.
func SaveMLP(w io.Writer, spec MLPSpec, net *Network) error {
	var sv savedNet
	sv.Spec = spec
	for _, p := range net.Params() {
		vals := make([]float64, len(p.Val))
		copy(vals, p.Val)
		sv.Params = append(sv.Params, vals)
	}
	for _, l := range net.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			sv.States = append(sv.States, bn.State())
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&sv)
}

// LoadMLP reconstructs a network saved by SaveMLP.
func LoadMLP(r io.Reader) (MLPSpec, *Network, error) {
	var sv savedNet
	if err := json.NewDecoder(r).Decode(&sv); err != nil {
		return MLPSpec{}, nil, fmt.Errorf("nn: decode: %w", err)
	}
	net, err := NewMLP(sv.Spec, rand.New(rand.NewSource(0)))
	if err != nil {
		return MLPSpec{}, nil, err
	}
	ps := net.Params()
	if len(ps) != len(sv.Params) {
		return MLPSpec{}, nil, fmt.Errorf("nn: saved file has %d params, spec needs %d", len(sv.Params), len(ps))
	}
	for i, p := range ps {
		if len(p.Val) != len(sv.Params[i]) {
			return MLPSpec{}, nil, fmt.Errorf("nn: param %d size %d, want %d", i, len(sv.Params[i]), len(p.Val))
		}
		copy(p.Val, sv.Params[i])
	}
	var bi int
	for _, l := range net.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			if bi >= len(sv.States) {
				return MLPSpec{}, nil, fmt.Errorf("nn: missing batch-norm state %d", bi)
			}
			bn.SetState(sv.States[bi])
			bi++
		}
	}
	return sv.Spec, net, nil
}

// CloneMLP deep-copies the weights and batch-norm statistics of a
// network built by NewMLP (used to snapshot the best policy seen during
// training and to give each concurrent caller its own policy). The
// clone shares no scratch with the source and folds its own fused plan
// on its first ForwardBounded.
func CloneMLP(spec MLPSpec, net *Network) *Network {
	c, err := NewMLP(spec, rand.New(rand.NewSource(0)))
	if err != nil {
		panic(err) // spec was already validated when net was built
	}
	src, dst := net.Params(), c.Params()
	for i := range src {
		copy(dst[i].Val, src[i].Val)
	}
	var bns []*BatchNorm
	for _, l := range net.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			bns = append(bns, bn)
		}
	}
	var bi int
	for _, l := range c.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			bn.SetState(bns[bi].State())
			bi++
		}
	}
	return c
}
