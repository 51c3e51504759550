package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDenseForward(t *testing.T) {
	d := NewDense(2, 2, rand.New(rand.NewSource(1)))
	copy(d.W.Val, []float64{1, 2, 3, 4}) // rows: [1 2], [3 4]
	copy(d.B.Val, []float64{10, 20})
	y := d.Forward([]float64{1, -1}, false)
	if !almost(y[0], 1-2+10, 1e-12) || !almost(y[1], 3-4+20, 1e-12) {
		t.Errorf("Forward = %v, want [9 19]", y)
	}
}

func TestDenseInputSizePanics(t *testing.T) {
	d := NewDense(3, 2, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Error("wrong input size did not panic")
		}
	}()
	d.Forward([]float64{1, 2}, false)
}

// lossGrad computes the policy-gradient style loss L = -ln softmax(logits)[a]
// and its gradient w.r.t. logits (= probs - onehot).
func lossGrad(logits []float64, a int) (float64, []float64) {
	p := SoftmaxInto(make([]float64, len(logits)), logits)
	g := make([]float64, len(p))
	copy(g, p)
	g[a] -= 1
	return -math.Log(p[a]), g
}

func TestMLPGradCheck(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	spec := MLPSpec{In: 3, Hidden: []int{5}, Out: 4, BatchNorm: false, Activation: "tanh"}
	net, err := NewMLP(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.7, 1.1}
	const action = 2

	// Analytic gradients.
	net.ZeroGrad()
	logits := net.Forward(x, false)
	_, g := lossGrad(logits, action)
	net.Backward(g)

	// Finite differences on every parameter.
	const h = 1e-6
	for pi, p := range net.Params() {
		for j := range p.Val {
			orig := p.Val[j]
			p.Val[j] = orig + h
			lp, _ := lossGrad(net.Forward(x, false), action)
			p.Val[j] = orig - h
			lm, _ := lossGrad(net.Forward(x, false), action)
			p.Val[j] = orig
			want := (lp - lm) / (2 * h)
			if !almost(p.Grad[j], want, 1e-5) {
				t.Fatalf("param %d[%d] (%s): grad %v, finite diff %v", pi, j, p.Name, p.Grad[j], want)
			}
		}
	}
}

func TestMLPGradCheckWithBatchNorm(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	spec := MLPSpec{In: 3, Hidden: []int{4}, Out: 3, BatchNorm: true, Activation: "tanh"}
	net, err := NewMLP(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the running stats in train mode, then grad-check in eval mode
	// (where the stats are constants, matching the stop-gradient design).
	for i := 0; i < 50; i++ {
		net.Forward([]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}, true)
	}
	x := []float64{0.5, -1, 0.25}
	const action = 1
	net.ZeroGrad()
	_, g := lossGrad(net.Forward(x, false), action)
	net.Backward(g)

	const h = 1e-6
	for pi, p := range net.Params() {
		for j := range p.Val {
			orig := p.Val[j]
			p.Val[j] = orig + h
			lp, _ := lossGrad(net.Forward(x, false), action)
			p.Val[j] = orig - h
			lm, _ := lossGrad(net.Forward(x, false), action)
			p.Val[j] = orig
			want := (lp - lm) / (2 * h)
			if !almost(p.Grad[j], want, 1e-5) {
				t.Fatalf("param %d[%d] (%s): grad %v, finite diff %v", pi, j, p.Name, p.Grad[j], want)
			}
		}
	}
}

func TestSoftmax(t *testing.T) {
	p := SoftmaxInto(make([]float64, 3), []float64{1, 2, 3})
	var sum float64
	for _, v := range p {
		sum += v
	}
	if !almost(sum, 1, 1e-12) {
		t.Errorf("softmax sum = %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Errorf("softmax not monotone: %v", p)
	}
	// Numerical stability with huge logits.
	p = SoftmaxInto(make([]float64, 3), []float64{1000, 1000, 999})
	if math.IsNaN(p[0]) || !almost(p[0], p[1], 1e-12) {
		t.Errorf("unstable softmax: %v", p)
	}
}

func TestMaskedSoftmax(t *testing.T) {
	p := MaskedSoftmaxInto(make([]float64, 3), []float64{5, 1, 1}, []bool{false, true, true})
	if p[0] != 0 {
		t.Errorf("masked entry has probability %v", p[0])
	}
	if !almost(p[1]+p[2], 1, 1e-12) || !almost(p[1], 0.5, 1e-12) {
		t.Errorf("masked softmax wrong: %v", p)
	}
	defer func() {
		if recover() == nil {
			t.Error("all-masked did not panic")
		}
	}()
	MaskedSoftmaxInto(make([]float64, 1), []float64{1}, []bool{false})
}

func TestBatchNormNormalizes(t *testing.T) {
	bn := NewBatchNorm(1)
	r := rand.New(rand.NewSource(3))
	// Feed samples centered at 50 with std 5.
	for i := 0; i < 5000; i++ {
		bn.Forward([]float64{50 + 5*r.NormFloat64()}, true)
	}
	if !almost(bn.Mean[0], 50, 1.0) {
		t.Errorf("running mean = %v, want ~50", bn.Mean[0])
	}
	if !almost(math.Sqrt(bn.Var[0]), 5, 1.0) {
		t.Errorf("running std = %v, want ~5", math.Sqrt(bn.Var[0]))
	}
	// In eval mode a sample at the mean normalizes to ~0 (gamma 1, beta 0).
	y := bn.Forward([]float64{50}, false)
	if !almost(y[0], 0, 0.2) {
		t.Errorf("normalized mean sample = %v, want ~0", y[0])
	}
}

func TestBatchNormStateRoundTrip(t *testing.T) {
	bn := NewBatchNorm(3)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		bn.Forward([]float64{r.NormFloat64(), 3 + r.NormFloat64(), -2}, true)
	}
	s := bn.State()
	bn2 := NewBatchNorm(3)
	bn2.SetState(s)
	x := []float64{0.5, 3.5, -2}
	y1 := bn.Forward(x, false)
	y2 := bn2.Forward(x, false)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("outputs differ after state restore: %v vs %v", y1, y2)
		}
	}
}

func TestAdamMinimizesQuadratic(t *testing.T) {
	// Minimize f(w) = sum (w_i - target_i)^2.
	target := []float64{3, -2, 0.5}
	p := newParam("w", 3)
	opt := NewAdam([]*Param{p}, 0.05)
	for step := 0; step < 2000; step++ {
		for i := range p.Val {
			p.Grad[i] = 2 * (p.Val[i] - target[i])
		}
		opt.Step(1)
	}
	for i := range p.Val {
		if !almost(p.Val[i], target[i], 1e-2) {
			t.Errorf("w[%d] = %v, want %v", i, p.Val[i], target[i])
		}
	}
	if opt.t != 2000 {
		t.Errorf("step count = %d", opt.t)
	}
}

func TestMLPLearnsToClassify(t *testing.T) {
	// Two linearly separable inputs must get different argmax actions
	// after cross-entropy training — sanity that the whole stack learns.
	r := rand.New(rand.NewSource(11))
	spec := MLPSpec{In: 2, Hidden: []int{8}, Out: 2, BatchNorm: true, Activation: "tanh"}
	net, err := NewMLP(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewAdam(net.Params(), 0.01)
	samples := []struct {
		x []float64
		y int
	}{
		{[]float64{1, 0}, 0},
		{[]float64{0, 1}, 1},
		{[]float64{0.9, 0.1}, 0},
		{[]float64{0.2, 0.8}, 1},
	}
	for epoch := 0; epoch < 300; epoch++ {
		for _, s := range samples {
			logits := net.Forward(s.x, true)
			_, g := lossGrad(logits, s.y)
			net.Backward(g)
		}
		opt.Step(float64(len(samples)))
	}
	for _, s := range samples {
		logits := net.Forward(s.x, false)
		p := SoftmaxInto(make([]float64, len(logits)), logits)
		if p[s.y] < 0.8 {
			t.Errorf("input %v: P(correct) = %v, want > 0.8 (probs %v)", s.x, p[s.y], p)
		}
	}
}

func TestMLPSaveLoadRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	spec := MLPSpec{In: 3, Hidden: []int{20}, Out: 5, BatchNorm: true, Activation: "tanh"}
	net, err := NewMLP(spec, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		net.Forward([]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}, true)
	}
	var buf bytes.Buffer
	if err := SaveMLP(&buf, spec, net); err != nil {
		t.Fatal(err)
	}
	spec2, net2, err := LoadMLP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if spec2.In != spec.In || spec2.Out != spec.Out || spec2.BatchNorm != spec.BatchNorm ||
		spec2.Activation != spec.Activation || len(spec2.Hidden) != len(spec.Hidden) || spec2.Hidden[0] != spec.Hidden[0] {
		t.Errorf("spec mismatch: %+v vs %+v", spec2, spec)
	}
	x := []float64{0.1, -0.2, 0.3}
	y1 := net.Forward(x, false)
	y2 := net2.Forward(x, false)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("outputs differ after round trip: %v vs %v", y1, y2)
		}
	}
}

func TestCloneMLP(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	spec := MLPSpec{In: 2, Hidden: []int{4}, Out: 2, BatchNorm: true}
	net, _ := NewMLP(spec, r)
	for i := 0; i < 10; i++ {
		net.Forward([]float64{r.NormFloat64(), r.NormFloat64()}, true)
	}
	c := CloneMLP(spec, net)
	x := []float64{0.4, -0.9}
	y1, y2 := net.Forward(x, false), c.Forward(x, false)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("clone differs: %v vs %v", y1, y2)
		}
	}
	// Mutating the clone must not affect the original.
	c.Params()[0].Val[0] += 1
	y3 := net.Forward(x, false)
	for i := range y1 {
		if y1[i] != y3[i] {
			t.Fatal("clone shares storage with original")
		}
	}
}

func TestMLPSpecValidate(t *testing.T) {
	bad := []MLPSpec{
		{In: 0, Out: 2},
		{In: 2, Out: 0},
		{In: 2, Out: 2, Hidden: []int{0}},
		{In: 2, Out: 2, Activation: "sigmoid"},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
	if err := (MLPSpec{In: 3, Hidden: []int{20}, Out: 3, BatchNorm: true, Activation: "tanh"}).Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestNumParams(t *testing.T) {
	spec := MLPSpec{In: 3, Hidden: []int{20}, Out: 3, BatchNorm: true}
	net, _ := NewMLP(spec, rand.New(rand.NewSource(1)))
	// dense1: 3*20+20, bn: 20+20, dense2: 20*3+3
	want := 3*20 + 20 + 20 + 20 + 20*3 + 3
	got := 0
	for _, p := range net.Params() {
		got += len(p.Val)
	}
	if got != want {
		t.Errorf("Params hold %d scalars, want %d", got, want)
	}
}

func TestReLU(t *testing.T) {
	a := NewReLU(3)
	y := a.Forward([]float64{-1, 0, 2}, false)
	if y[0] != 0 || y[1] != 0 || y[2] != 2 {
		t.Errorf("ReLU forward = %v", y)
	}
	g := a.Backward([]float64{5, 5, 5})
	if g[0] != 0 || g[1] != 0 || g[2] != 5 {
		t.Errorf("ReLU backward = %v", g)
	}
}
