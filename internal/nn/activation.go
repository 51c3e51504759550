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
