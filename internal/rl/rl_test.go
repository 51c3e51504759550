package rl

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// banditEnv is a 10-step repeated two-armed bandit: action 0 pays 1,
// action 1 pays 0. The optimal policy always pulls arm 0.
type banditEnv struct {
	step int
	n    int
}

func (b *banditEnv) Reset() ([]float64, []bool, bool) {
	b.step = 0
	return []float64{1, 0}, []bool{true, true}, false
}

func (b *banditEnv) Step(a int) ([]float64, []bool, float64, bool) {
	b.step++
	r := 0.0
	if a == 0 {
		r = 1
	}
	done := b.step >= b.n
	return []float64{1, 0}, []bool{true, true}, r, done
}

func (b *banditEnv) StateSize() int  { return 2 }
func (b *banditEnv) NumActions() int { return 2 }

// corridorEnv tests state-dependent decisions: state[0] is +1 or -1 and
// the rewarding action matches the sign.
type corridorEnv struct {
	r    *rand.Rand
	step int
	cur  float64
}

func (c *corridorEnv) Reset() ([]float64, []bool, bool) {
	c.step = 0
	c.cur = 1
	if c.r.Intn(2) == 0 {
		c.cur = -1
	}
	return []float64{c.cur}, []bool{true, true}, false
}

func (c *corridorEnv) Step(a int) ([]float64, []bool, float64, bool) {
	want := 0
	if c.cur < 0 {
		want = 1
	}
	reward := 0.0
	if a == want {
		reward = 1
	}
	c.step++
	c.cur = 1
	if c.r.Intn(2) == 0 {
		c.cur = -1
	}
	return []float64{c.cur}, []bool{true, true}, reward, c.step >= 12
}

func (c *corridorEnv) StateSize() int  { return 1 }
func (c *corridorEnv) NumActions() int { return 2 }

func TestReturns(t *testing.T) {
	ep := &Episode{Rewards: []float64{1, 2, 3}}
	got := ep.returnsInto(nil, 1.0)
	want := []float64{6, 5, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("returns at gamma 1 = %v, want %v", got, want)
		}
	}
	got = ep.returnsInto(got, 0.5)
	// R2 = 3; R1 = 2 + 0.5*3 = 3.5; R0 = 1 + 0.5*3.5 = 2.75
	want = []float64{2.75, 3.5, 3}
	for i := range want {
		if !almost(got[i], want[i], 1e-12) {
			t.Fatalf("returns at gamma 0.5 = %v, want %v", got, want)
		}
	}
	if ep.TotalReward() != 6 {
		t.Errorf("TotalReward = %v", ep.TotalReward())
	}
}

func TestNormalizeReturns(t *testing.T) {
	out := normalizeSingleSteps([]float64{1, 2, 3})
	var mean float64
	for _, v := range out {
		mean += v
	}
	if !almost(mean/3, 0, 1e-12) {
		t.Errorf("normalized mean = %v", mean/3)
	}
	var sd float64
	for _, v := range out {
		sd += v * v
	}
	if !almost(math.Sqrt(sd/3), 1, 1e-12) {
		t.Errorf("normalized std = %v", math.Sqrt(sd/3))
	}
	// Constant returns give zero gradient signal.
	for _, v := range normalizeSingleSteps([]float64{5, 5, 5}) {
		if v != 0 {
			t.Errorf("constant returns normalized to %v", v)
		}
	}
	// A lone sample at a position carries no comparative signal.
	if out := normalizeSingleSteps([]float64{7}); out[0] != 0 {
		t.Errorf("single episode normalized to %v, want 0", out[0])
	}
}

// normalizeSingleSteps runs batchCoeffs, the trainer's Eq. 11
// normalization, over one single-step episode per reward, so every return
// shares position 0, and returns each episode's coefficient.
func normalizeSingleSteps(rewards []float64) []float64 {
	eps := make([]*Episode, len(rewards))
	for i, r := range rewards {
		eps[i] = &Episode{Actions: []int{0}, Rewards: []float64{r}}
	}
	coeffs := make([][]float64, len(eps))
	batchCoeffs(eps, 1, coeffs, make([][]float64, len(eps)))
	out := make([]float64, len(eps))
	for i, c := range coeffs {
		out[i] = c[0]
	}
	return out
}

func TestNormalizeReturnsProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		rs := make([]float64, len(raw))
		for i, v := range raw {
			rs[i] = float64(v)
		}
		out := normalizeSingleSteps(rs)
		var mean float64
		for _, v := range out {
			mean += v
		}
		return almost(mean/float64(len(out)), 0, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleActionDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	probs := []float64{0.2, 0.5, 0.3}
	counts := make([]int, 3)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[SampleAction(probs, r)]++
	}
	for i, p := range probs {
		got := float64(counts[i]) / n
		if !almost(got, p, 0.02) {
			t.Errorf("action %d frequency %v, want ~%v", i, got, p)
		}
	}
}

func TestSampleActionSkipsZeros(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	probs := []float64{0, 1, 0}
	for i := 0; i < 100; i++ {
		if a := SampleAction(probs, r); a != 1 {
			t.Fatalf("sampled zero-probability action %d", a)
		}
	}
}

func TestGreedyAction(t *testing.T) {
	if a := GreedyAction([]float64{0.1, 0.7, 0.2}); a != 1 {
		t.Errorf("GreedyAction = %d, want 1", a)
	}
	if a := GreedyAction([]float64{0.9}); a != 0 {
		t.Errorf("GreedyAction = %d, want 0", a)
	}
}

func TestPolicyMasking(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p, err := NewPolicy(2, 3, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	mask := []bool{true, false, true}
	probs := p.Probs([]float64{0.5, -0.5}, mask, false)
	if probs[1] != 0 {
		t.Errorf("masked action probability %v", probs[1])
	}
	if !almost(probs[0]+probs[2], 1, 1e-12) {
		t.Errorf("legal probabilities sum to %v", probs[0]+probs[2])
	}
	for i := 0; i < 50; i++ {
		if a := p.Act([]float64{0.5, -0.5}, mask, true, r); a == 1 {
			t.Fatal("sampled masked action")
		}
	}
}

func TestTrainLearnsBandit(t *testing.T) {
	envs := make([]Env, 60)
	for i := range envs {
		envs[i] = &banditEnv{n: 10}
	}
	cfg := DefaultTrainConfig()
	cfg.Seed = 5
	cfg.LearningRate = 0.05
	res, err := TrainSeeded(envs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probs := res.Best.Probs([]float64{1, 0}, []bool{true, true}, false)
	if probs[0] < 0.85 {
		t.Errorf("P(good arm) = %v after training, want > 0.85", probs[0])
	}
	if res.BestReward != 10 {
		t.Errorf("best reward = %v, want 10", res.BestReward)
	}
	if res.EpisodesRun != 600 {
		t.Errorf("episodes = %d, want 600", res.EpisodesRun)
	}
}

func TestTrainLearnsStateDependentPolicy(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	envs := make([]Env, 40)
	for i := range envs {
		envs[i] = &corridorEnv{r: r}
	}
	cfg := DefaultTrainConfig()
	cfg.Seed = 6
	cfg.LearningRate = 0.02
	res, err := TrainSeeded(envs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pos := res.Best.Probs([]float64{1}, []bool{true, true}, false)
	neg := res.Best.Probs([]float64{-1}, []bool{true, true}, false)
	if pos[0] < 0.8 || neg[1] < 0.8 {
		t.Errorf("policy not state-dependent: P(0|+1)=%v P(1|-1)=%v", pos[0], neg[1])
	}
}

func TestEntropyBonusKeepsPolicyMixed(t *testing.T) {
	// With a large entropy bonus the bandit policy must stay near-uniform
	// even though arm 0 always pays; with none it commits to arm 0.
	mk := func(entropy float64) []float64 {
		envs := make([]Env, 40)
		for i := range envs {
			envs[i] = &banditEnv{n: 10}
		}
		cfg := DefaultTrainConfig()
		cfg.Seed = 4
		cfg.LearningRate = 0.05
		cfg.Entropy = entropy
		res, err := TrainSeeded(envs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Final.Probs([]float64{1, 0}, []bool{true, true}, false)
	}
	committed := mk(0)
	mixed := mk(5)
	if committed[0] < 0.8 {
		t.Errorf("without entropy bonus P(best) = %v, want > 0.8", committed[0])
	}
	if mixed[0] > 0.7 {
		t.Errorf("with large entropy bonus P(best) = %v, want <= 0.7 (near-uniform)", mixed[0])
	}
}

func TestProgressKeyAlignment(t *testing.T) {
	// Episodes of different lengths but overlapping progress keys must be
	// normalized against each other at equal keys. Run one trainer batch
	// on keyEnv and check the update moves the policy toward the action
	// that does better at shared keys (signal flows).
	p, err := NewPolicy(1, 2, 4, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{Seed: 8, Episodes: 8, LearningRate: 0.05, Gamma: 1, Workers: 1}
	cfg.fillDefaults()
	g := newEngine(p, cfg)
	before := p.Probs([]float64{0.5}, []bool{true, true}, false)[0]
	g.runBatch(&keyEnv{}, &TrainResult{BestReward: math.Inf(-1)})
	lengths := map[int]bool{}
	for _, ep := range g.eps {
		lengths[ep.Len()] = true
	}
	if len(lengths) < 2 {
		t.Fatalf("every episode has the same length %v; the test needs a mix", lengths)
	}
	after := p.Probs([]float64{0.5}, []bool{true, true}, false)[0]
	if after <= before {
		t.Errorf("P(better action) %v -> %v, want increase", before, after)
	}
}

// keyEnv advances its progress key by 1 on action 0 and by 2, at a reward
// of -5, on action 1, ending at key 14: episodes of different lengths meet
// at shared keys, where action 0 does better.
type keyEnv struct{ key int }

func (k *keyEnv) Reset() ([]float64, []bool, bool) {
	k.key = 10
	return []float64{0.5}, []bool{true, true}, false
}

func (k *keyEnv) Step(a int) ([]float64, []bool, float64, bool) {
	r := 0.0
	if a == 1 {
		k.key += 2
		r = -5
	} else {
		k.key++
	}
	return []float64{0.5}, []bool{true, true}, r, k.key >= 14
}

func (k *keyEnv) ProgressKey() int { return k.key }
func (k *keyEnv) StateSize() int   { return 1 }
func (k *keyEnv) NumActions() int  { return 2 }

func TestTrainRejectsShapeMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p, _ := NewPolicy(3, 2, 4, r)
	if _, err := TrainPolicy(p, []Env{&banditEnv{n: 5}}, DefaultTrainConfig()); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := TrainPolicy(p, nil, DefaultTrainConfig()); err == nil {
		t.Error("empty env list accepted")
	}
}

func TestPolicySaveLoadRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	p, err := NewPolicy(3, 4, 20, r)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate batch-norm stats so the round trip covers state.
	for i := 0; i < 20; i++ {
		p.Probs([]float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}, nil, true)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := LoadPolicy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.1, 0.9}
	p1 := p.Probs(x, nil, false)
	p2 := q.Probs(x, nil, false)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("probs differ after round trip: %v vs %v", p1, p2)
		}
	}
}

func TestRolloutRecordsEpisode(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	p, _ := NewPolicy(2, 2, 4, r)
	env := &banditEnv{n: 7}
	ep := &Episode{}
	rolloutInto(ep, env, p, r, false)
	if ep.Len() != 7 {
		t.Fatalf("episode length %d, want 7", ep.Len())
	}
	if len(ep.States) != 7 || len(ep.Masks) != 7 || len(ep.Rewards) != 7 {
		t.Error("episode slices inconsistent")
	}
}
