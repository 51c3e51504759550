package nn

import (
	"math"
	"math/rand"
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

// TestFastTanhVecMatchesScalar pins the open-coded kernel loop to the
// scalar FastTanh bit for bit — the two are the same ops by
// construction, and this keeps them that way.
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
		want := FastTanh(x)
		if got[i] != want && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
			t.Fatalf("fastTanhVec(%g) = %v, FastTanh = %v", x, got[i], want)
		}
	}
}

// fastNet builds a warmed-up paper-shape network and returns it with its
// KernelFast twin (same weights and statistics, fast kernel selected).
func fastNet(t *testing.T, spec MLPSpec, seed int64) (*Network, *Network) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	net, err := NewMLP(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		net.Forward(randStates(r, 1, spec.In), true)
	}
	fast := CloneMLP(spec, net)
	fast.SetKernel(KernelFast)
	return net, fast
}

// TestForwardBatchFastTolerance bounds the fast forward against the
// exact one, row by row, across architectures (with and without
// batch-norm, tanh and relu, multi-hidden), and asserts that stacks
// without batch-norm or tanh match exactly — fusion only reassociates
// the batch-norm affine, so relu and plain Dense stacks carry no
// approximation at all unless batch-norm is present.
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
		net, fast := fastNet(t, spec, 21)
		exactRelu := !spec.BatchNorm && spec.Activation != "tanh"
		for _, b := range []int{1, 3, 16, 64} {
			x := randStates(r, b, spec.In)
			for row := 0; row < b; row++ {
				xr := x[row*spec.In : (row+1)*spec.In]
				exact := net.Forward(xr, false)
				got := fast.Forward(xr, false)
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
				}
			}
		}
	}
}

// TestForwardVectorZeroAlloc is the satellite regression test for the
// non-batch serving hot path: a warmed-up inference Forward — Dense,
// BatchNorm and Tanh all reusing their layer-owned buffers — allocates
// nothing per call, in both kernels.
func TestForwardVectorZeroAlloc(t *testing.T) {
	spec := MLPSpec{In: 5, Hidden: []int{20}, Out: 5, BatchNorm: true, Activation: "tanh"}
	net, fast := fastNet(t, spec, 6)
	r := rand.New(rand.NewSource(9))
	x := randStates(r, 1, spec.In)
	for name, n := range map[string]*Network{"exact": net, "fast": fast} {
		n.Forward(x, false) // warm layer buffers / fused scratch
		allocs := testing.AllocsPerRun(10, func() {
			n.Forward(x, false)
		})
		if allocs != 0 {
			t.Fatalf("%s Forward allocates %.1f per call, want 0", name, allocs)
		}
	}
}

// TestKernelCloneAndGuards pins the plumbing: clones inherit the kernel,
// training-mode forwards stay exact (and keep updating statistics), and
// Backward refuses to run after a fast forward instead of producing
// silently wrong gradients.
func TestKernelCloneAndGuards(t *testing.T) {
	spec := MLPSpec{In: 3, Hidden: []int{8}, Out: 3, BatchNorm: true, Activation: "tanh"}
	_, fast := fastNet(t, spec, 77)
	if got := CloneMLP(spec, fast).kernel; got != KernelFast {
		t.Fatalf("CloneMLP dropped the kernel: got %v", got)
	}

	// Training-mode forward on a fast network still runs the exact layer
	// path (statistics move; Backward works afterwards).
	var bn *BatchNorm
	for _, l := range fast.Layers {
		if b, ok := l.(*BatchNorm); ok {
			bn = b
		}
	}
	r := rand.New(rand.NewSource(3))
	fast.Forward(randStates(r, 1, spec.In), false) // fold the current statistics
	before := append([]float64(nil), bn.Mean...)
	out := fast.Forward(randStates(r, 1, spec.In), true)
	moved := false
	for i := range before {
		if bn.Mean[i] != before[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("training-mode forward on a KernelFast network did not update statistics")
	}
	fast.Backward(make([]float64, len(out))) // must not panic after an exact pass

	// The training-mode forward moved the statistics the fast kernel
	// folds into its weights: the next fast forward must refold, and so
	// equal a freshly built fast clone bit for bit.
	x := randStates(r, 1, spec.In)
	got := append([]float64(nil), fast.Forward(x, false)...)
	want := CloneMLP(spec, fast).Forward(x, false)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fast forward after a statistics update: logit %d = %v, fresh fast clone %v", i, got[i], want[i])
		}
	}

	// Inference forward flips to the fast kernel; Backward must refuse.
	fast.Forward(randStates(r, 1, spec.In), false)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward after a fast forward did not panic")
		}
	}()
	fast.Backward(make([]float64, spec.Out))
}

func BenchmarkFastTanh(b *testing.B) {
	xs := make([]float64, 1024)
	r := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = r.NormFloat64() * 3
	}
	var sink float64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, x := range xs {
			sink += FastTanh(x)
		}
	}
	benchScalarSink = sink
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

// benchForwardSingle times the vector inference forward over 64 states
// of a warmed-up serving-shape network under kernel k.
func benchForwardSingle(b *testing.B, k Kernel) {
	r := rand.New(rand.NewSource(1))
	spec := MLPSpec{In: 5, Hidden: []int{20}, Out: 5, BatchNorm: true, Activation: "tanh"}
	net, _ := NewMLP(spec, r)
	for i := 0; i < 200; i++ {
		net.Forward(randStates(r, 1, spec.In), true)
	}
	net.SetKernel(k)
	x := randStates(r, 64, spec.In)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for row := 0; row < 64; row++ {
			benchSink = net.Forward(x[row*spec.In:(row+1)*spec.In], false)
		}
	}
}

func BenchmarkForwardSingle(b *testing.B)     { benchForwardSingle(b, KernelExact) }
func BenchmarkForwardSingleFast(b *testing.B) { benchForwardSingle(b, KernelFast) }

var benchSink []float64

var benchScalarSink float64
