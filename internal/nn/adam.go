package nn

import (
	"fmt"
	"math"
)

// Adam implements the Adam stochastic optimizer (Kingma & Ba) over a set
// of parameters. The paper trains with Adam at learning rate 1e-3.
type Adam struct {
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	params []*Param
	m, v   [][]float64
	t      int
}

// NewAdam creates an optimizer for the given parameters with the standard
// hyper-parameters (beta1 0.9, beta2 0.999, eps 1e-8).
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{
		LR:     lr,
		Beta1:  0.9,
		Beta2:  0.999,
		Eps:    1e-8,
		params: params,
		m:      make([][]float64, len(params)),
		v:      make([][]float64, len(params)),
	}
	for i, p := range params {
		a.m[i] = make([]float64, len(p.Val))
		a.v[i] = make([]float64, len(p.Val))
	}
	return a
}

// Step applies one Adam update from the accumulated gradients and clears
// them. scale divides the gradients first (use it to average over an
// episode's steps).
func (a *Adam) Step(scale float64) {
	if scale == 0 {
		scale = 1
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j := range p.Val {
			g := p.Grad[j] / scale
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			mh := m[j] / c1
			vh := v[j] / c2
			p.Val[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
			p.Grad[j] = 0
		}
	}
}

// AdamState is the serializable optimizer state: the step counter and the
// first/second moment estimates, in parameter order. Checkpointing needs
// it because resuming training with fresh moments would change every
// subsequent update (the bias-correction terms depend on t).
type AdamState struct {
	T int         `json:"t"`
	M [][]float64 `json:"m"`
	V [][]float64 `json:"v"`
}

// Snapshot copies the optimizer state into dst, reusing dst's slices when
// they are large enough so a per-batch snapshot allocates only once.
// Returns dst.
func (a *Adam) Snapshot(dst *AdamState) *AdamState {
	dst.T = a.t
	dst.M = copyStateInto(dst.M, a.m)
	dst.V = copyStateInto(dst.V, a.v)
	return dst
}

// State returns a deep copy of the optimizer state.
func (a *Adam) State() AdamState {
	var s AdamState
	a.Snapshot(&s)
	return s
}

// Restore sets the optimizer state from a snapshot taken on an optimizer
// over identically-shaped parameters. It fails (leaving a unchanged) when
// the shapes do not match.
func (a *Adam) Restore(s *AdamState) error {
	if len(s.M) != len(a.m) || len(s.V) != len(a.v) {
		return fmt.Errorf("nn: Adam state has %d/%d moment vectors, want %d", len(s.M), len(s.V), len(a.m))
	}
	for i := range a.m {
		if len(s.M[i]) != len(a.m[i]) || len(s.V[i]) != len(a.v[i]) {
			return fmt.Errorf("nn: Adam state moment %d has %d/%d values, want %d", i, len(s.M[i]), len(s.V[i]), len(a.m[i]))
		}
	}
	a.t = s.T
	for i := range a.m {
		copy(a.m[i], s.M[i])
		copy(a.v[i], s.V[i])
	}
	return nil
}

func copyStateInto(dst, src [][]float64) [][]float64 {
	if len(dst) != len(src) {
		dst = make([][]float64, len(src))
	}
	for i, s := range src {
		if len(dst[i]) != len(s) {
			dst[i] = make([]float64, len(s))
		}
		copy(dst[i], s)
	}
	return dst
}
