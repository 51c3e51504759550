package nn

import "math"

// FastMath inference kernels. The exact inference forward (KernelExact)
// is bit-identical to the single-sample training forward, which caps its
// speed: math.Tanh alone is roughly half the forward cost at the paper's
// 20-unit policy, and bit-identity forbids approximating it or fusing
// the Dense/BatchNorm/activation traversals. KernelFast is the explicit,
// opt-in relaxation of that contract:
//
//   - math.Tanh is replaced by FastTanh, a rational approximation with a
//     published maximum absolute error (FastTanhMaxAbsError);
//   - the frozen-BatchNorm normalization (x-mean)/sqrt(Var+Eps) followed
//     by gamma*nv+beta is algebraically folded all the way into the
//     Dense weights and bias, once per network (fastPlan), so the matmul
//     pass carries no affine work at all; the activation then runs once
//     over the cache-hot logits. Two traversals where the exact path
//     makes three (plus a divide per element), at the cost of
//     reassociating the float64 operations.
//
// The divergence this buys is measured, not hoped: the tolerance pillar
// in internal/check bounds the probability error of the fast path
// against the exact path over every adversarial generator family and
// asserts that greedy (argmax) decisions never change — the invariant
// production callers actually rely on (DESIGN.md §13).
//
// KernelFast is inference-only. The fast forwards populate none of the
// layer caches Backward consumes, so Network.Backward panics after a
// fast forward rather than silently computing garbage gradients.
// Training code never selects it; serving sets it on dedicated policy
// clones (core.Trained.FastClone).

// Kernel selects the arithmetic contract of a network's inference
// forwards.
type Kernel int

const (
	// KernelExact is the default: every inference forward is
	// bit-identical to the single-sample training forward.
	KernelExact Kernel = iota
	// KernelFast selects the fused approximate inference kernels: tanh
	// via FastTanh, Dense+BatchNorm+activation fused into one traversal.
	// Outputs carry a bounded approximation error; see the package notes
	// above and DESIGN.md §13.
	KernelFast
)

// String names the kernel for bench/serving provenance.
func (k Kernel) String() string {
	if k == KernelFast {
		return "fast"
	}
	return "exact"
}

// SetKernel selects the inference kernel for this network. KernelExact
// (the default) keeps every inference forward bit-identical to the
// training forward; KernelFast enables the fused approximate kernels.
// Training-mode forwards (train=true) always run exact. It also drops
// the fused kernel's folded weights, so the next fast forward refolds
// them from the current weights and statistics.
func (n *Network) SetKernel(k Kernel) {
	n.kernel = k
	n.fast = nil
}

// Contract constants of the FastMath kernels, asserted continuously by
// internal/nn's dense-sweep test and internal/check's tolerance pillar.
// They are published bounds with margin over the measured worst case,
// not the measured values themselves (measured: tanh 4.4e-8 over a
// 4M-point sweep of [-20, 20]; probs abs 1.1e-7 and rel 1.3e-6 over the
// adversarial families at the harness seeds).
const (
	// FastTanhMaxAbsError bounds |FastTanh(x) - math.Tanh(x)| over all
	// finite x.
	FastTanhMaxAbsError = 1e-7
	// FastProbsMaxAbsError bounds the absolute error of any probability
	// produced by a KernelFast Probs against the exact path
	// on the same state, for the policy shapes this system trains
	// (paper-scale MLPs; the bound scales with the L1 norm of the output
	// layer rows, see DESIGN.md §13).
	FastProbsMaxAbsError = 1e-5
	// FastProbsMaxRelError bounds the relative error of any such
	// probability (equivalently ~FastProbsMaxRelError/epsilon ULPs: the
	// ULP distance of two positive float64s within relative distance r
	// is at most r/2^-52 plus one). Probabilities below
	// FastProbsRelFloor are exempt — softmax tails lose absolute
	// precision faster than any approximation contract can promise.
	FastProbsMaxRelError = 1e-4
	// FastProbsRelFloor is the probability magnitude below which only
	// the absolute bound applies.
	FastProbsRelFloor = 1e-9
)

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
func FastTanh(x float64) float64 {
	if x != x { // NaN
		return x
	}
	if x >= fastTanhSat {
		return 1
	}
	if x <= -fastTanhSat {
		return -1
	}
	if x > fastTanhClamp {
		x = fastTanhClamp
	} else if x < -fastTanhClamp {
		x = -fastTanhClamp
	}
	x2 := x * x
	p := x * (tanhA1 + x2*(tanhA3+x2*(tanhA5+x2*(tanhA7+x2*(tanhA9+x2*(tanhA11+x2*tanhA13))))))
	q := tanhB0 + x2*(tanhB2+x2*(tanhB4+x2*tanhB6))
	return p / q
}

// fusedAct names the activation folded into a fused Dense kernel.
type fusedAct int

const (
	actNone fusedAct = iota
	actTanh
	actReLU
)

// fastStage is one step of the KernelFast forward: either a Dense
// [+ BatchNorm] [+ Tanh/ReLU] run fused into one matmul over folded
// weights plus an activation pass, or (layer != nil) a layer outside
// that pattern, which runs its exact Forward. None are produced by
// NewMLP, but the Layer interface admits them.
type fastStage struct {
	layer Layer

	in  int
	w   []float64 // out x in, the batch-norm affine folded in (the live Dense weights when there is none)
	b   []float64 // out, likewise
	act fusedAct
	y   []float64 // output scratch
}

// fastPlan returns the network's fused stages, building them on first
// use after a drop. The batch-norm fold is taken here, once per network,
// not once per forward: SetKernel, a training-mode Forward, UpdateStats,
// SetParams and SyncFrom drop the plan, since each can move the weights
// or the statistics it was folded from. A caller that writes Param
// values or BatchNorm statistics directly calls SetKernel again before
// the next fast forward.
func (n *Network) fastPlan() []fastStage {
	if n.fast != nil {
		return n.fast
	}
	for i := 0; i < len(n.Layers); {
		d, ok := n.Layers[i].(*Dense)
		if !ok {
			n.fast = append(n.fast, fastStage{layer: n.Layers[i]})
			i++
			continue
		}
		st := fastStage{in: d.In, w: d.W.Val, b: d.B.Val, y: make([]float64, d.Out)}
		j := i + 1
		if j < len(n.Layers) {
			if bn, ok := n.Layers[j].(*BatchNorm); ok {
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
		n.fast = append(n.fast, st)
		i = j
	}
	return n.fast
}

// forwardFast is the KernelFast vector forward. It populates none of
// the caches Backward needs, so the caller (Forward) marks the network
// fast-dirty first. The result is the last stage's scratch, valid until
// the next forward; after the first call it allocates nothing.
func (n *Network) forwardFast(x []float64) []float64 {
	for i := range n.fastPlan() {
		x = n.fast[i].forward(x)
	}
	return x
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
	if st.layer != nil {
		return st.layer.Forward(x, false)
	}
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
// multiplies distribute into each product); the divergence is covered
// by the same measured contract as the rest of the fast path.
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
// TestFastTanhVecMatchesScalar pins it to FastTanh bit for bit.
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
