package nn

import "math"

// Tanh is an element-wise hyperbolic tangent activation (the activation
// the paper uses in the hidden layer).
type Tanh struct {
	size    int
	lastOut []float64
	gin     []float64
}

// NewTanh creates a Tanh activation for vectors of the given size.
func NewTanh(size int) *Tanh { return &Tanh{size: size} }

// Forward applies tanh element-wise. The returned slice is owned by the
// layer and overwritten by the next Forward call.
func (a *Tanh) Forward(x []float64, _ bool) []float64 {
	checkLen("Tanh input", len(x), a.size)
	if a.lastOut == nil {
		a.lastOut = make([]float64, a.size)
	}
	y := a.lastOut
	for i, v := range x {
		y[i] = math.Tanh(v)
	}
	return y
}

// Backward multiplies by 1 - tanh^2.
func (a *Tanh) Backward(grad []float64) []float64 {
	checkLen("Tanh grad", len(grad), a.size)
	if a.gin == nil {
		a.gin = make([]float64, a.size)
	}
	gin := a.gin
	for i, g := range grad {
		y := a.lastOut[i]
		gin[i] = g * (1 - y*y)
	}
	return gin
}

// Params returns nil: activations have no trainable parameters.
func (a *Tanh) Params() []*Param { return nil }

// ReLU is an element-wise rectified linear activation, provided for
// ablation experiments against the paper's tanh choice.
type ReLU struct {
	size   int
	lastIn []float64
	out    []float64
	gin    []float64
}

// NewReLU creates a ReLU activation for vectors of the given size.
func NewReLU(size int) *ReLU { return &ReLU{size: size} }

// Forward applies max(0, x) element-wise. The returned slice is owned by
// the layer and overwritten by the next Forward call.
func (a *ReLU) Forward(x []float64, _ bool) []float64 {
	checkLen("ReLU input", len(x), a.size)
	a.lastIn = x
	if a.out == nil {
		a.out = make([]float64, a.size)
	}
	y := a.out
	for i, v := range x {
		if v > 0 {
			y[i] = v
		} else {
			y[i] = 0
		}
	}
	return y
}

// Backward passes gradient where the input was positive.
func (a *ReLU) Backward(grad []float64) []float64 {
	checkLen("ReLU grad", len(grad), a.size)
	if a.gin == nil {
		a.gin = make([]float64, a.size)
	}
	gin := a.gin
	for i, g := range grad {
		if a.lastIn[i] > 0 {
			gin[i] = g
		} else {
			gin[i] = 0
		}
	}
	return gin
}

// Params returns nil: activations have no trainable parameters.
func (a *ReLU) Params() []*Param { return nil }
