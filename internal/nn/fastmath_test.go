package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestFastTanhKernel is the kernel-level contract test: a dense sweep of
// the active range plus every special value the satellite of the
// tolerance pillar names. The sweep asserts the published bound
// (FastTanhMaxAbsError), not the measured error, so coefficient or
// clamp changes that eat the margin fail here before they reach the
// probability-level pillar in internal/check.
func TestFastTanhKernel(t *testing.T) {
	// Dense sweep over [-20, 20]: 4M evenly spaced points plus 100k
	// log-spaced magnitudes (the fit error is not uniform in x, and the
	// tiny-|x| regime exercises the p/q cancellation).
	const n = 4_000_000
	maxErr, at := 0.0, 0.0
	for i := 0; i <= n; i++ {
		x := -20 + 40*float64(i)/float64(n)
		e := math.Abs(FastTanh(x) - math.Tanh(x))
		if e > maxErr {
			maxErr, at = e, x
		}
	}
	for i := 0; i < 100_000; i++ {
		x := math.Pow(10, -12+13.4*float64(i)/100_000) // 1e-12 .. ~2.5e1
		for _, s := range []float64{x, -x} {
			e := math.Abs(FastTanh(s) - math.Tanh(s))
			if e > maxErr {
				maxErr, at = e, s
			}
		}
	}
	t.Logf("measured max abs error %.3e at x=%g (published bound %.1e)", maxErr, at, FastTanhMaxAbsError)
	if maxErr > FastTanhMaxAbsError {
		t.Fatalf("FastTanh max abs error %.3e at x=%g exceeds published bound %.1e",
			maxErr, at, FastTanhMaxAbsError)
	}

	// Signed zeros pass through exactly.
	if v := FastTanh(0); v != 0 || math.Signbit(v) {
		t.Errorf("FastTanh(+0) = %v, want +0", v)
	}
	if v := FastTanh(math.Copysign(0, -1)); v != 0 || !math.Signbit(v) {
		t.Errorf("FastTanh(-0) = %v, want -0", v)
	}

	// Denormals: no trap, no NaN, error under the bound, sign preserved
	// or exactly zero (the numerator may underflow).
	for _, x := range []float64{5e-324, -5e-324, 1e-310, -1e-310, 2.2e-308, -2.2e-308} {
		v := FastTanh(x)
		if math.IsNaN(v) {
			t.Fatalf("FastTanh(%g) = NaN", x)
		}
		if math.Abs(v-math.Tanh(x)) > FastTanhMaxAbsError {
			t.Errorf("FastTanh(%g) = %v, error above bound", x, v)
		}
		if v != 0 && math.Signbit(v) != math.Signbit(x) {
			t.Errorf("FastTanh(%g) = %v: sign flipped", x, v)
		}
	}

	// Exact saturation at the extremes: every |x| >= 20 — including the
	// infinities — returns exactly ±1, matching math.Tanh's own rounded
	// value there.
	for _, x := range []float64{20, 25, 1e6, 1e300, math.Inf(1)} {
		if v := FastTanh(x); v != 1 {
			t.Errorf("FastTanh(%g) = %v, want exactly 1", x, v)
		}
		if v := FastTanh(-x); v != -1 {
			t.Errorf("FastTanh(%g) = %v, want exactly -1", -x, v)
		}
	}

	// NaN propagates.
	if v := FastTanh(math.NaN()); !math.IsNaN(v) {
		t.Errorf("FastTanh(NaN) = %v, want NaN", v)
	}

	// Odd symmetry is exact: the rational form is odd in x and the
	// clamp/saturation branches are symmetric.
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 10_000; i++ {
		x := r.NormFloat64() * math.Pow(10, float64(r.Intn(9)-4))
		if FastTanh(-x) != -FastTanh(x) {
			t.Fatalf("FastTanh(-%g) != -FastTanh(%g)", x, x)
		}
	}
}

// fastTanhScalar is the textbook scalar form of the rational fit:
// range checks, clamp, then p/q.
func fastTanhScalar(x float64) float64 {
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

// TestFastTanhVecMatchesScalar pins the open-coded kernel loop to the
// scalar form bit for bit — the two are the same ops by construction,
// and this keeps them that way.
func TestFastTanhVecMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	xs := make([]float64, 0, 20_000)
	for i := 0; i < 4096; i++ {
		xs = append(xs, r.NormFloat64()*math.Pow(10, float64(r.Intn(13)-6)))
	}
	xs = append(xs, 0, math.Copysign(0, -1), 5e-324, -5e-324, 9, -9, 20, -20,
		math.Inf(1), math.Inf(-1), math.NaN(), 8.999999999, 19.999999, 1e300, -1e300)
	got := append([]float64(nil), xs...)
	fastTanhVec(got)
	for i, x := range xs {
		want := fastTanhScalar(x)
		if got[i] != want && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
			t.Fatalf("fastTanhVec(%g) = %v, scalar form %v", x, got[i], want)
		}
	}
}

// fastNet builds a warmed-up paper-shape network: 50 training-mode
// forwards move its batch-norm statistics off their initial values.
func fastNet(t *testing.T, spec MLPSpec, seed int64) *Network {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	net, err := NewMLP(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		net.Forward(randStates(r, 1, spec.In), true)
	}
	return net
}

// TestForwardBatchFastTolerance bounds the fused forward against the
// exact one, row by row, across architectures (with and without
// batch-norm, tanh and relu, multi-hidden), and asserts that stacks
// without batch-norm or tanh match exactly — fusion only reassociates
// the batch-norm affine, so relu and plain Dense stacks carry no
// approximation at all unless batch-norm is present. Every logit also
// lies within its certificate bound.
func TestForwardBatchFastTolerance(t *testing.T) {
	specs := []MLPSpec{
		{In: 3, Hidden: []int{20}, Out: 3, BatchNorm: true, Activation: "tanh"},
		{In: 5, Hidden: []int{20}, Out: 5, BatchNorm: true, Activation: "tanh"},
		{In: 5, Hidden: []int{16}, Out: 5, BatchNorm: true, Activation: "relu"},
		{In: 4, Hidden: []int{8, 8}, Out: 6, BatchNorm: true, Activation: "tanh"},
		{In: 7, Hidden: []int{12}, Out: 2, BatchNorm: false, Activation: "tanh"},
		{In: 2, Hidden: nil, Out: 4, BatchNorm: false, Activation: ""},
	}
	r := rand.New(rand.NewSource(99))
	for _, spec := range specs {
		net := fastNet(t, spec, 21)
		exactRelu := !spec.BatchNorm && spec.Activation != "tanh"
		for _, b := range []int{1, 3, 16, 64} {
			x := randStates(r, b, spec.In)
			for row := 0; row < b; row++ {
				xr := x[row*spec.In : (row+1)*spec.In]
				exact := append([]float64(nil), net.Forward(xr, false)...)
				got, bound := net.ForwardBounded(xr)
				// Logit error compounds through at most two tanh layers
				// and the output affine; 1e-4 is ~3 orders of magnitude
				// of margin for these widths.
				const tol = 1e-4
				for i := range exact {
					if math.Abs(got[i]-exact[i]) > tol {
						t.Fatalf("%+v b=%d row %d logit %d: fast %v vs exact %v", spec, b, row, i, got[i], exact[i])
					}
					if exactRelu && got[i] != exact[i] {
						t.Fatalf("%+v row %d logit %d: fast %v != exact %v without batch-norm", spec, row, i, got[i], exact[i])
					}
					if !(math.Abs(got[i]-exact[i]) <= bound[i]) {
						t.Fatalf("%+v row %d logit %d: |fast-exact| = %g above its bound %g", spec, row, i, math.Abs(got[i]-exact[i]), bound[i])
					}
				}
			}
		}
	}
}

// TestForwardVectorZeroAlloc is the satellite regression test for the
// non-batch serving hot path: a warmed-up inference Forward — Dense,
// BatchNorm and Tanh all reusing their layer-owned buffers — allocates
// nothing per call, and neither does ForwardBounded.
func TestForwardVectorZeroAlloc(t *testing.T) {
	spec := MLPSpec{In: 5, Hidden: []int{20}, Out: 5, BatchNorm: true, Activation: "tanh"}
	net := fastNet(t, spec, 6)
	r := rand.New(rand.NewSource(9))
	x := randStates(r, 1, spec.In)
	for name, fwd := range map[string]func(){
		"exact":   func() { net.Forward(x, false) },
		"bounded": func() { net.ForwardBounded(x) },
	} {
		fwd() // warm layer buffers / fused scratch
		if allocs := testing.AllocsPerRun(10, fwd); allocs != 0 {
			t.Fatalf("%s forward allocates %.1f per call, want 0", name, allocs)
		}
	}
}

// TestKernelCloneAndGuards pins the fold's plumbing: every write to the
// weights or statistics — SetParams, SyncFrom, UpdateStats, a
// training-mode Forward, or a direct write followed by Refold — makes
// the next ForwardBounded refold, bit-identical to a fresh clone's;
// training-mode forwards stay exact and keep updating statistics; and
// Backward refuses to run after ForwardBounded instead of producing
// silently wrong gradients.
func TestKernelCloneAndGuards(t *testing.T) {
	spec := MLPSpec{In: 3, Hidden: []int{8}, Out: 3, BatchNorm: true, Activation: "tanh"}
	net := fastNet(t, spec, 77)
	var bn *BatchNorm
	for _, l := range net.Layers {
		if b, ok := l.(*BatchNorm); ok {
			bn = b
		}
	}
	r := rand.New(rand.NewSource(3))
	other := fastNet(t, spec, 78)
	x := randStates(r, 1, spec.In)
	for _, w := range []struct {
		name  string
		write func()
	}{
		{"training Forward", func() {
			before := append([]float64(nil), bn.Mean...)
			net.Forward(randStates(r, 1, spec.In), true)
			if slices.Equal(before, bn.Mean) {
				t.Fatal("training-mode forward did not update statistics")
			}
		}},
		{"UpdateStats", func() { net.UpdateStats(randStates(r, 1, spec.In)) }},
		{"SetParams", func() {
			ps := net.FlattenParams(nil)
			for i := range ps {
				ps[i] *= 1.01
			}
			net.SetParams(ps)
		}},
		{"SyncFrom", func() { net.SyncFrom(other) }},
		{"direct write + Refold", func() {
			net.Params()[0].Val[0] += 0.25
			net.Refold()
		}},
	} {
		net.ForwardBounded(x) // fold the current weights and statistics
		w.write()
		logits, bound := net.ForwardBounded(x)
		got := append(append([]float64(nil), logits...), bound...)
		logits, bound = CloneMLP(spec, net).ForwardBounded(x)
		want := append(append([]float64(nil), logits...), bound...)
		if !slices.Equal(got, want) {
			t.Fatalf("ForwardBounded logits and bounds after %s = %v, fresh clone's %v", w.name, got, want)
		}
	}

	out := net.Forward(randStates(r, 1, spec.In), true)
	net.Backward(make([]float64, len(out))) // must not panic after an exact pass

	net.ForwardBounded(randStates(r, 1, spec.In))
	defer func() {
		if recover() == nil {
			t.Fatal("Backward after ForwardBounded did not panic")
		}
	}()
	net.Backward(make([]float64, spec.Out))
}

func BenchmarkFastTanh(b *testing.B) {
	xs := make([]float64, 1024)
	r := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = r.NormFloat64() * 3
	}
	buf := make([]float64, len(xs))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		copy(buf, xs)
		fastTanhVec(buf)
	}
	benchScalarSink = buf[0]
}

func BenchmarkMathTanh(b *testing.B) {
	xs := make([]float64, 1024)
	r := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = r.NormFloat64() * 3
	}
	var sink float64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, x := range xs {
			sink += math.Tanh(x)
		}
	}
	benchScalarSink = sink
}

// randStates fills a b x in matrix with a mix of magnitudes so the tanh
// fast (polynomial) and slow (exp) paths, relu sign branches and softmax
// ranges are all exercised.
func randStates(r *rand.Rand, b, in int) []float64 {
	x := make([]float64, b*in)
	for i := range x {
		switch i % 3 {
		case 0:
			x[i] = r.NormFloat64() * 0.1
		case 1:
			x[i] = r.NormFloat64()
		default:
			x[i] = r.NormFloat64() * 100
		}
	}
	return x
}

// benchForwardSingle times fwd over 64 states of a warmed-up
// serving-shape network.
func benchForwardSingle(b *testing.B, fwd func(n *Network, x []float64) []float64) {
	r := rand.New(rand.NewSource(1))
	spec := MLPSpec{In: 5, Hidden: []int{20}, Out: 5, BatchNorm: true, Activation: "tanh"}
	net, _ := NewMLP(spec, r)
	for i := 0; i < 200; i++ {
		net.Forward(randStates(r, 1, spec.In), true)
	}
	x := randStates(r, 64, spec.In)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for row := 0; row < 64; row++ {
			benchSink = fwd(net, x[row*spec.In:(row+1)*spec.In])
		}
	}
}

func BenchmarkForwardSingle(b *testing.B) {
	benchForwardSingle(b, func(n *Network, x []float64) []float64 { return n.Forward(x, false) })
}

func BenchmarkForwardSingleFast(b *testing.B) {
	benchForwardSingle(b, func(n *Network, x []float64) []float64 {
		logits, _ := n.ForwardBounded(x)
		return logits
	})
}

var benchSink []float64

var benchScalarSink float64
