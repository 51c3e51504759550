// Package nn is a small, dependency-free neural network substrate: dense
// layers, the tanh activation, batch normalization, softmax, Xavier
// initialization, the Adam optimizer and JSON serialization.
//
// It replaces the TensorFlow 1.8 stack used by the paper. The policy
// networks in this system are tiny (input k or k+J, one hidden layer of 20
// units, softmax output), so a straightforward single-sample forward /
// backward implementation on float64 slices is both sufficient and fast.
// Gradients are accumulated across the steps of an episode and applied in
// one optimizer step, exactly as the REINFORCE update (Eq. 11) requires.
package nn

import (
	"fmt"
	"math"
)

// Param is a named tensor of trainable values with its accumulated
// gradient. All tensors are flat float64 slices; shape is the owning
// layer's concern.
type Param struct {
	Name string
	Val  []float64
	Grad []float64
}

func newParam(name string, n int) *Param {
	return &Param{Name: name, Val: make([]float64, n), Grad: make([]float64, n)}
}

// Layer is one differentiable stage of a network. Forward caches whatever
// Backward needs, so calls must be paired: Forward(x) then Backward(grad)
// before the next Forward. Backward adds into the layer's parameter
// gradients and returns the gradient w.r.t. its input.
type Layer interface {
	Forward(x []float64, train bool) []float64
	Backward(grad []float64) []float64
	Params() []*Param
}

// Network is a sequential stack of layers producing logits.
type Network struct {
	Layers []Layer

	params    []*Param    // flat view of all layer parameters, built by NewMLP
	normDepth int         // 1 + index of last BatchNorm layer; 0 = unknown, -1 = none
	fast      []fastStage // fused plan with the folded weights; nil until built or after a drop
	bound     []float64   // ForwardBounded's bound scratch
	fastPass  bool        // last forward was ForwardBounded: Backward must refuse
}

// Forward runs x through all layers. train selects training-time behaviour
// (e.g. batch-norm statistics updates, which also drop the fused
// forward's folded weights). Every Forward is exact: an inference
// forward (train=false) is bit-identical to a training one on the same
// weights and statistics.
func (n *Network) Forward(x []float64, train bool) []float64 {
	n.fastPass = false
	if train {
		n.fast = nil
	}
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the gradient of the loss w.r.t. the network output
// back through all layers, accumulating parameter gradients. It refuses
// to run after ForwardBounded: the fused forward populates none of the
// layer caches Backward consumes, so the gradients would be silently
// wrong rather than approximate.
func (n *Network) Backward(grad []float64) {
	if n.fastPass {
		panic("nn: Backward after ForwardBounded (the fused forward is inference-only)")
	}
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
}

// UpdateStats runs x through the network in training mode far enough to
// update every normalization layer's running statistics, then stops (the
// logits are not needed). The parallel trainer uses it to absorb a batch
// of states into the batch-norm statistics exactly once per update, after
// all rollouts were generated against a frozen snapshot.
func (n *Network) UpdateStats(x []float64) {
	n.fast = nil
	if n.normDepth == 0 {
		n.normDepth = -1
		for i, l := range n.Layers {
			if _, ok := l.(*BatchNorm); ok {
				n.normDepth = i + 1
			}
		}
	}
	for i := 0; i < n.normDepth; i++ {
		x = n.Layers[i].Forward(x, true)
	}
}

// Params returns all trainable parameters of the network in layer
// order. NewMLP builds the slice with the network, so Params only reads.
func (n *Network) Params() []*Param { return n.params }

// ZeroGrad clears all accumulated gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// GradSize returns the total number of gradient scalars, i.e. the length
// FlattenGrads needs.
func (n *Network) GradSize() int {
	var c int
	for _, p := range n.Params() {
		c += len(p.Grad)
	}
	return c
}

// FlattenGrads copies the accumulated gradients of every parameter into
// dst (resliced from dst[:0], so a buffer with enough capacity is reused
// allocation-free) and returns it. Order matches AddGrads.
func (n *Network) FlattenGrads(dst []float64) []float64 {
	dst = dst[:0]
	for _, p := range n.Params() {
		dst = append(dst, p.Grad...)
	}
	return dst
}

// AddGrads accumulates a flat gradient vector produced by FlattenGrads
// (typically on a replica of this network) into the parameter gradients.
func (n *Network) AddGrads(src []float64) {
	var off int
	for _, p := range n.Params() {
		g := p.Grad
		for i := range g {
			g[i] += src[off+i]
		}
		off += len(g)
	}
	checkLen("AddGrads input", len(src), off)
}

// GradNorm returns the L2 norm of the accumulated gradient across every
// parameter — the trainer's per-batch divergence telemetry.
func (n *Network) GradNorm() float64 {
	var sum float64
	for _, p := range n.Params() {
		for _, g := range p.Grad {
			sum += g * g
		}
	}
	return math.Sqrt(sum)
}

// FlattenParams copies every parameter value into dst (resliced from
// dst[:0], so a buffer with enough capacity is reused allocation-free) and
// returns it. Order matches SetParams and FlattenGrads.
func (n *Network) FlattenParams(dst []float64) []float64 {
	dst = dst[:0]
	for _, p := range n.Params() {
		dst = append(dst, p.Val...)
	}
	return dst
}

// SetParams restores parameter values from a flat vector produced by
// FlattenParams. The trainer's divergence guard uses it to roll back an
// update that produced non-finite weights.
func (n *Network) SetParams(src []float64) {
	n.fast = nil
	var off int
	for _, p := range n.Params() {
		copy(p.Val, src[off:off+len(p.Val)])
		off += len(p.Val)
	}
	checkLen("SetParams input", len(src), off)
}

// ParamsFinite reports whether every parameter value is finite (no NaN or
// Inf anywhere in the network weights).
func (n *Network) ParamsFinite() bool {
	for _, p := range n.Params() {
		for _, v := range p.Val {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// GradsFinite reports whether every accumulated gradient value is finite.
func (n *Network) GradsFinite() bool {
	for _, p := range n.Params() {
		for _, v := range p.Grad {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// SyncFrom copies all parameter values and batch-norm running statistics
// from src into n, in place and without allocating. Both networks must
// have been built from the same spec; the worker replicas of the parallel
// trainer use this to refresh themselves from the master policy.
func (n *Network) SyncFrom(src *Network) {
	n.fast = nil
	sp, dp := src.Params(), n.Params()
	checkLen("SyncFrom params", len(dp), len(sp))
	for i, p := range dp {
		copy(p.Val, sp[i].Val)
	}
	checkLen("SyncFrom layers", len(n.Layers), len(src.Layers))
	for i, l := range n.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			sbn, ok := src.Layers[i].(*BatchNorm)
			if !ok {
				panic("nn: SyncFrom layer type mismatch")
			}
			bn.copyStatsFrom(sbn)
		}
	}
}

// SoftmaxInto writes the softmax of logits into dst (len must equal
// len(logits)), using the max-subtraction trick for numerical stability.
// dst may alias logits.
func SoftmaxInto(dst, logits []float64) []float64 {
	checkLen("SoftmaxInto dst", len(dst), len(logits))
	max := math.Inf(-1)
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

// MaskedSoftmaxInto is SoftmaxInto restricted to the actions where
// mask[i] is true; masked-out entries get probability 0. It panics if no
// action is legal.
func MaskedSoftmaxInto(dst, logits []float64, mask []bool) []float64 {
	checkLen("MaskedSoftmaxInto dst", len(dst), len(logits))
	max := math.Inf(-1)
	any := false
	for i, v := range logits {
		if mask[i] && v > max {
			max = v
			any = true
		}
	}
	if !any {
		panic("nn: MaskedSoftmax with no legal action")
	}
	var sum float64
	for i, v := range logits {
		if !mask[i] {
			dst[i] = 0
			continue
		}
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

func checkLen(name string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("nn: %s length %d, want %d", name, got, want))
	}
}
