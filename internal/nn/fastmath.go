package nn

import (
	"fmt"
	"math"
)

// The fused forward behind certified inference (DESIGN.md §13):
// FastTanh for math.Tanh and the frozen batch-norm affine folded into
// the Dense weights once per network, with a bound on each logit's
// distance from the exact forward's. Inference-only: Backward panics
// after it.

// Refold drops the fused plan after an in-place write to the weights or
// batch-norm statistics (an optimizer step), so the next ForwardBounded
// folds them again. Training-mode Forward, UpdateStats, SetParams and
// SyncFrom drop it themselves.
func (n *Network) Refold() { n.fast = nil }

// Published bounds of the fused forward, with margin over the measured
// worst case (tanh 2.57e-8 over a 4M-point sweep of [-20, 20]; probs abs
// 2.3e-8 and rel 1.3e-7 over the adversarial families), asserted by
// internal/nn's sweep and internal/check's tolerance pillar.
const (
	// FastTanhMaxAbsError bounds |FastTanh(x) - math.Tanh(x)| over all
	// finite x.
	FastTanhMaxAbsError = 1e-7
	// FastProbsMaxAbsError bounds the absolute error of any probability
	// taken from ForwardBounded's logits against the exact one, for
	// paper-scale policies (it scales with the output rows' L1 norm).
	FastProbsMaxAbsError = 1e-5
	// FastProbsMaxRelError bounds the relative error of any such
	// probability of at least FastProbsRelFloor; softmax tails below it
	// get only the absolute bound.
	FastProbsMaxRelError = 1e-4
	FastProbsRelFloor    = 1e-9
)

// fastTanhBound is the certificate's tanh term E: TestFastTanhBoundProof
// proves |FastTanh(x) - tanh(x)| + tanhLibError <= E for every finite x,
// tanh the real function, so |FastTanh(z) - math.Tanh(y)| <= E + |z-y|.
const fastTanhBound = FastTanhMaxAbsError

// tanhLibError bounds |math.Tanh(x) - tanh(x)|: its exp branch is within
// 2^-51 given an exp within one ulp, its rational branch is Cephes'
// (peak relative error 2.5e-16). TestTanhLibError samples it.
const tanhLibError = 0x1p-49

// fastTanhSat is the |x| beyond which FastTanh returns exactly ±1.
// tanh(20) = 1 - ~8.2e-18, which rounds to 1.0 in float64, so the
// saturation is not merely within tolerance — it matches math.Tanh's own
// rounded value.
const fastTanhSat = 20

// fastTanhClamp is the fit boundary of the rational approximation:
// inputs beyond it are clamped, which costs at most 1-tanh(9) ~ 3.1e-8
// of absolute error — under the published bound.
const fastTanhClamp = 9

// Coefficients of the odd 13/6-degree rational minimax fit of tanh on
// [-9, 9] — the classic coefficient set used by Eigen's and XLA's fast
// tanh kernels. The fit targets ~1e-8 absolute error; evaluated in
// float64 the fit error dominates rounding.
const (
	tanhA1  = 4.89352455891786e-03
	tanhA3  = 6.37261928875436e-04
	tanhA5  = 1.48572235717979e-05
	tanhA7  = 5.12229709037114e-08
	tanhA9  = -8.60467152213735e-11
	tanhA11 = 2.00018790482477e-13
	tanhA13 = -2.76076847742355e-16
	tanhB0  = 4.89352518554385e-03
	tanhB2  = 2.26843463243900e-03
	tanhB4  = 1.18534705686654e-04
	tanhB6  = 1.19825839466702e-06
)

// FastTanh approximates math.Tanh with |error| <= FastTanhMaxAbsError
// for every finite input, at a fraction of the cost (no exp, no
// branching beyond range checks). Totality contract: NaN propagates,
// ±Inf and every |x| >= 20 return exactly ±1, ±0 return ±0, denormal
// inputs neither trap nor produce error above the bound, and
// FastTanh(-x) == -FastTanh(x) exactly (the rational form is odd and
// the clamps are symmetric).
//
// It is the served kernel fastTanhVec on one element, so what the tests
// prove of FastTanh holds for every fused forward.
func FastTanh(x float64) float64 {
	v := [1]float64{x}
	fastTanhVec(v[:])
	return v[0]
}

// fusedAct names the activation folded into a fused Dense kernel.
type fusedAct int

const (
	actNone fusedAct = iota
	actTanh
	actReLU
)

// fastStage is one step of the fused forward: a Dense [+ BatchNorm]
// [+ Tanh/ReLU] run fused into one matmul over folded weights plus an
// activation pass. NewMLP, the only constructor of networks, builds
// every network from such runs.
type fastStage struct {
	in  int
	w   []float64 // out x in, the batch-norm affine folded in (the live Dense weights when there is none)
	b   []float64 // out, likewise
	act fusedAct
	y   []float64 // output scratch

	// Certificate constants (see ForwardBounded), per output and their
	// maxima: the folded row L1 norm and kappa*(|s|(|b|+|mean|)+|beta|);
	// guardC+guardL*|x| bounds every magnitude the exact path forms in
	// the stage.
	kappa                        float64
	l1, rc                       []float64
	l1Max, rcMax, guardC, guardL float64
}

// fastPlan returns the network's fused stages, building them on first
// use after a drop. The batch-norm fold and the certificate constants
// are taken here, once per network, not once per forward: Refold, a
// training-mode Forward, UpdateStats, SetParams and SyncFrom drop the
// plan, since each can move the weights or the statistics it was
// folded from.
func (n *Network) fastPlan() []fastStage {
	if n.fast != nil {
		return n.fast
	}
	for i := 0; i < len(n.Layers); {
		d, ok := n.Layers[i].(*Dense)
		if !ok {
			panic(fmt.Sprintf("nn: fused forward: layer %d is a %T, not a Dense", i, n.Layers[i]))
		}
		st := fastStage{in: d.In, w: d.W.Val, b: d.B.Val, y: make([]float64, d.Out)}
		var bn *BatchNorm
		j := i + 1
		if j < len(n.Layers) {
			if bn, _ = n.Layers[j].(*BatchNorm); bn != nil {
				checkLen("Dense fused batch-norm", bn.size, d.Out)
				st.w, st.b = foldBatchNorm(d, bn)
				j++
			}
		}
		if j < len(n.Layers) {
			switch n.Layers[j].(type) {
			case *Tanh:
				st.act = actTanh
				j++
			case *ReLU:
				st.act = actReLU
				j++
			}
		}
		st.bounds(d, bn)
		n.fast = append(n.fast, st)
		i = j
	}
	return n.fast
}

// bounds computes the stage's certificate constants (bn may be nil). A
// non-finite weight or statistic, or Var+Eps <= 0, makes the guard fail.
func (st *fastStage) bounds(d *Dense, bn *BatchNorm) {
	st.kappa = float64(2*d.In+16) * 0x1p-53
	st.l1, st.rc = make([]float64, d.Out), make([]float64, d.Out)
	for o := range st.l1 {
		var l1, raw float64
		for i, v := range st.w[o*d.In : (o+1)*d.In] {
			l1 += math.Abs(v)
			raw += math.Abs(d.W.Val[o*d.In+i])
		}
		c0, gc, gl := math.Abs(d.B.Val[o]), math.Abs(d.B.Val[o]), raw
		if bn != nil {
			sigma := math.Sqrt(bn.Var[o] + bn.Eps)
			g, beta := max(1, math.Abs(bn.Gamma.Val[o]))/sigma, math.Abs(bn.Beta.Val[o])
			c0 = math.Abs(bn.Gamma.Val[o]/sigma)*(c0+math.Abs(bn.Mean[o])) + beta
			gc, gl = g*(gc+math.Abs(bn.Mean[o]))+beta, g*raw
		}
		st.l1[o], st.rc[o] = l1, st.kappa*c0
		st.l1Max, st.rcMax = max(st.l1Max, l1), max(st.rcMax, st.rc[o])
		st.guardC, st.guardL = max(st.guardC, gc), max(st.guardL, gl)
	}
}

// ForwardBounded runs x through the fused forward and returns its logits
// with a bound per logit: |logits[k] - Forward(x, false)[k]| <=
// bound[k]. Both slices are network scratch, valid until the next
// forward; nothing is allocated after the first call.
//
// With u = 2^-53 and kappa = (2·in+16)·u, a stage's pre-activation o in
// folded order is within kappa·(|s|(|b|+|mean|+‖W_o‖₁‖x‖∞)+|beta|) of
// the exact order's (s = gamma/sqrt(Var+Eps)), and an input off by e
// per element adds ‖W'_o‖₁·e(1+kappa). A tanh adds fastTanhBound and
// caps the error at 2; ReLU passes it through. Hidden stages carry the
// maximum over their outputs. The guard keeps every exact-path
// magnitude below 2^1000 so this rounding model holds; a stage that
// fails it or a non-finite input makes every bound +Inf.
func (n *Network) ForwardBounded(x []float64) (logits, bound []float64) {
	plan := n.fastPlan()
	n.fastPass = true
	mag, err := normInf(x), 0.0
	ok := true
	for i := range plan {
		st := &plan[i]
		ok = ok && st.guardC+st.guardL*(mag+err) < 0x1p1000
		a := err*(1+st.kappa) + st.kappa*(mag+err)
		x = st.forward(x)
		if i < len(plan)-1 {
			err, mag = st.act.widen(st.l1Max*a+st.rcMax), 1
			if st.act != actTanh {
				mag = normInf(x)
			}
			continue
		}
		if len(n.bound) != len(x) {
			n.bound = make([]float64, len(x))
		}
		for o := range n.bound {
			n.bound[o] = math.Inf(1)
			if ok {
				n.bound[o] = st.act.widen(st.l1[o]*a + st.rc[o])
			}
		}
	}
	return x, n.bound
}

// widen carries a pre-activation error bound through the activation.
func (a fusedAct) widen(d float64) float64 {
	if a == actTanh {
		return min(d+fastTanhBound, 2)
	}
	return d
}

// normInf returns max |v|, or +Inf when v holds a NaN or an infinity.
func normInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		a := math.Abs(x)
		if !(a <= math.MaxFloat64) {
			return math.Inf(1)
		}
		if a > m {
			m = a
		}
	}
	return m
}

// forward computes y = act(W'x + b') in two passes instead of the exact
// path's three-plus (Dense write, BatchNorm divide/read/write,
// activation read/write with math.Tanh calls): the batch-norm affine
// already sits in the folded weights, so the matmul carries no extra
// work over a plain Dense, and the activation then runs once over the
// cache-hot logits via the open-coded fastTanhVec. The inner loop is
// kept free of calls so the accumulator and slice headers stay in
// registers.
func (st *fastStage) forward(x []float64) []float64 {
	checkLen("Dense fused input", len(x), st.in)
	in, w, b, y := st.in, st.w, st.b, st.y
	if in == 3 {
		// The paper's state size, every serving hidden layer: the three
		// inputs stay in registers and the weights are read linearly.
		x0, x1, x2 := x[0], x[1], x[2]
		w = w[:3*len(y)]
		b = b[:len(y)]
		for o := range y {
			y[o] = b[o] + w[3*o]*x0 + w[3*o+1]*x1 + w[3*o+2]*x2
		}
	} else {
		for o := range y {
			row := w[o*in : (o+1)*in]
			s := b[o]
			for i, xi := range x {
				s += row[i] * xi
			}
			y[o] = s
		}
	}
	switch st.act {
	case actTanh:
		fastTanhVec(y)
	case actReLU:
		for o, v := range y {
			if !(v > 0) { // mirrors the exact kernel: -0 and NaN map to 0
				y[o] = 0
			}
		}
	}
	return y
}

// foldBatchNorm folds a batch-norm layer's frozen normalization and
// affine transform all the way into the preceding Dense layer:
//
//	gamma*(W*x + b - mean)/sqrt(Var+Eps) + beta  ==  W'*x + b'
//	scale[o] = gamma[o]/sqrt(Var[o]+Eps),  shift[o] = beta[o] - mean[o]*scale[o]
//	W'[o][i] = W[o][i]*scale[o],  b'[o] = b[o]*scale[o] + shift[o]
//
// The division happens once per feature per fold instead of once per
// element per forward. Folding reassociates the float64 ops (the scale
// multiplies distribute into each product); ForwardBounded's κ term
// covers the divergence.
func foldBatchNorm(d *Dense, bn *BatchNorm) (w, b []float64) {
	w = make([]float64, len(d.W.Val))
	b = make([]float64, d.Out)
	in := d.In
	for o := 0; o < d.Out; o++ {
		s := bn.Gamma.Val[o] / math.Sqrt(bn.Var[o]+bn.Eps)
		shift := bn.Beta.Val[o] - bn.Mean[o]*s
		row := d.W.Val[o*in : (o+1)*in]
		frow := w[o*in : (o+1)*in]
		for i, v := range row {
			frow[i] = v * s
		}
		b[o] = d.B.Val[o]*s + shift
	}
	return w, b
}

// fastTanhVec applies FastTanh element-wise in place. The rational
// evaluation is open-coded so the hot loop carries no per-element call
// overhead and the coefficients stay in registers;
// TestFastTanhVecMatchesScalar pins it to the scalar form bit for bit.
func fastTanhVec(v []float64) {
	for i, x := range v {
		if x != x { // NaN passes through
			continue
		}
		if x >= fastTanhSat {
			v[i] = 1
			continue
		}
		if x <= -fastTanhSat {
			v[i] = -1
			continue
		}
		if x > fastTanhClamp {
			x = fastTanhClamp
		} else if x < -fastTanhClamp {
			x = -fastTanhClamp
		}
		x2 := x * x
		p := x * (tanhA1 + x2*(tanhA3+x2*(tanhA5+x2*(tanhA7+x2*(tanhA9+x2*(tanhA11+x2*tanhA13))))))
		q := tanhB0 + x2*(tanhB2+x2*(tanhB4+x2*tanhB6))
		v[i] = p / q
	}
}
