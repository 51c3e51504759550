package nn

import (
	"math"
	"math/rand"
)

// Dense is a fully connected layer computing y = W*x + b, with W stored
// row-major as out x in.
type Dense struct {
	In, Out int
	W, B    *Param

	lastIn []float64
	out    []float64 // reused across Forward calls
	gin    []float64 // reused across Backward calls
}

// NewDense creates a Dense layer with Xavier/Glorot-uniform initialized
// weights and zero biases, drawn from r for reproducibility.
func NewDense(in, out int, r *rand.Rand) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   newParam("W", in*out),
		B:   newParam("b", out),
	}
	// Glorot uniform: U(-limit, limit), limit = sqrt(6 / (in + out)).
	limit := xavierLimit(in, out)
	for i := range d.W.Val {
		d.W.Val[i] = (r.Float64()*2 - 1) * limit
	}
	return d
}

func xavierLimit(in, out int) float64 {
	return math.Sqrt(6 / float64(in+out))
}

// Forward computes W*x + b and caches x for Backward. The returned slice
// is owned by the layer and overwritten by the next Forward call.
func (d *Dense) Forward(x []float64, _ bool) []float64 {
	checkLen("Dense input", len(x), d.In)
	d.lastIn = x
	if d.out == nil {
		d.out = make([]float64, d.Out)
	}
	y := d.out
	for o := 0; o < d.Out; o++ {
		row := d.W.Val[o*d.In : (o+1)*d.In]
		s := d.B.Val[o]
		for i, xi := range x {
			s += row[i] * xi
		}
		y[o] = s
	}
	return y
}

// Backward accumulates dL/dW and dL/db and returns dL/dx.
func (d *Dense) Backward(grad []float64) []float64 {
	checkLen("Dense grad", len(grad), d.Out)
	x := d.lastIn
	if d.gin == nil {
		d.gin = make([]float64, d.In)
	}
	gin := d.gin
	for i := range gin {
		gin[i] = 0
	}
	for o, g := range grad {
		if g == 0 {
			continue
		}
		row := d.W.Val[o*d.In : (o+1)*d.In]
		grow := d.W.Grad[o*d.In : (o+1)*d.In]
		d.B.Grad[o] += g
		for i, xi := range x {
			grow[i] += g * xi
			gin[i] += g * row[i]
		}
	}
	return gin
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }
