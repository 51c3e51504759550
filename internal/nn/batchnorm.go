package nn

import "math"

// BatchNorm normalizes each feature with running mean/variance statistics
// and applies a learnable affine transform (gamma, beta). The paper applies
// batch normalization before the hidden activation "to avoid data scale
// issues" — the state features are raw trajectory errors whose magnitude
// varies wildly across datasets and measures.
//
// REINFORCE consumes one state at a time, so there is no minibatch to
// normalize over. Instead the layer keeps exponential running statistics,
// updated during training and frozen at inference, and normalizes every
// sample with them (the standard batch-norm inference path). Gradients flow
// through gamma and beta; the running statistics are treated as constants
// (stop-gradient), which is the usual simplification for online
// normalization and is stable for nets this small.
type BatchNorm struct {
	size     int
	Gamma    *Param
	Beta     *Param
	Mean     []float64 // running mean
	Var      []float64 // running variance
	Momentum float64   // update rate for running stats
	Eps      float64

	lastNorm []float64 // cached normalized input for Backward
	out      []float64 // reused across Forward calls
	gin      []float64 // reused across Backward calls
	inited   bool
}

// NewBatchNorm creates a BatchNorm layer over vectors of the given size.
func NewBatchNorm(size int) *BatchNorm {
	bn := &BatchNorm{
		size:     size,
		Gamma:    newParam("gamma", size),
		Beta:     newParam("beta", size),
		Mean:     make([]float64, size),
		Var:      make([]float64, size),
		Momentum: 0.01,
		Eps:      1e-5,
	}
	for i := range bn.Gamma.Val {
		bn.Gamma.Val[i] = 1
		bn.Var[i] = 1
	}
	return bn
}

// Forward normalizes x with the running statistics and applies the affine
// transform. In training mode the running statistics absorb the sample
// first.
func (bn *BatchNorm) Forward(x []float64, train bool) []float64 {
	checkLen("BatchNorm input", len(x), bn.size)
	if train {
		if !bn.inited {
			// Seed the statistics with the first sample to avoid a long
			// warm-up from the arbitrary (0, 1) initialization.
			copy(bn.Mean, x)
			bn.inited = true
		}
		m := bn.Momentum
		for i, v := range x {
			d := v - bn.Mean[i]
			bn.Mean[i] += m * d
			bn.Var[i] = (1-m)*bn.Var[i] + m*d*d
		}
	}
	if bn.out == nil {
		bn.out = make([]float64, bn.size)
		bn.lastNorm = make([]float64, bn.size)
	}
	y, norm := bn.out, bn.lastNorm
	for i, v := range x {
		nv := (v - bn.Mean[i]) / math.Sqrt(bn.Var[i]+bn.Eps)
		norm[i] = nv
		y[i] = bn.Gamma.Val[i]*nv + bn.Beta.Val[i]
	}
	return y
}

// Backward accumulates gamma/beta gradients and returns the input gradient
// through the frozen normalization.
func (bn *BatchNorm) Backward(grad []float64) []float64 {
	checkLen("BatchNorm grad", len(grad), bn.size)
	if bn.gin == nil {
		bn.gin = make([]float64, bn.size)
	}
	gin := bn.gin
	for i, g := range grad {
		bn.Gamma.Grad[i] += g * bn.lastNorm[i]
		bn.Beta.Grad[i] += g
		gin[i] = g * bn.Gamma.Val[i] / math.Sqrt(bn.Var[i]+bn.Eps)
	}
	return gin
}

// Params returns gamma and beta.
func (bn *BatchNorm) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// State returns the running statistics (mean then variance), used by
// serialization.
func (bn *BatchNorm) State() []float64 {
	s := make([]float64, 0, 2*bn.size)
	s = append(s, bn.Mean...)
	return append(s, bn.Var...)
}

// SetState restores running statistics captured by State.
func (bn *BatchNorm) SetState(s []float64) {
	checkLen("BatchNorm state", len(s), 2*bn.size)
	copy(bn.Mean, s[:bn.size])
	copy(bn.Var, s[bn.size:])
	bn.inited = true
}

// Inited reports whether the running statistics have absorbed at least one
// training sample. SetState marks the layer initialized (a saved policy has
// meaningful statistics), so checkpoints that must reproduce a fresh layer
// bit for bit record the flag separately and restore it with SetInited.
func (bn *BatchNorm) Inited() bool { return bn.inited }

// SetInited overrides the statistics-initialization flag; see Inited.
func (bn *BatchNorm) SetInited(v bool) { bn.inited = v }

// copyStatsFrom copies the running statistics (and their initialization
// flag) from another layer of the same size, without allocating.
func (bn *BatchNorm) copyStatsFrom(src *BatchNorm) {
	checkLen("BatchNorm stats", src.size, bn.size)
	copy(bn.Mean, src.Mean)
	copy(bn.Var, src.Var)
	bn.inited = src.inited
}
