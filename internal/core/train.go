package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"rlts/internal/errm"
	"rlts/internal/nn"
	"rlts/internal/obs"
	"rlts/internal/rl"
	"rlts/internal/traj"
)

// TrainOptions configures policy learning for an RLTS variant.
type TrainOptions struct {
	RL rl.TrainConfig
	// WRatio sets the per-trajectory storage budget used during training:
	// W = max(minTrainW, WRatio * len(t)). The paper evaluates at W
	// between 0.1 and 0.5 of the trajectory length; training at 0.1
	// generalizes across that range because the state is W-independent.
	// Default 0.1.
	WRatio float64
}

// minTrainW floors the training budget, so states are non-trivial.
const minTrainW = 4

// DefaultTrainOptions returns the paper's training setup.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{RL: rl.DefaultTrainConfig(), WRatio: 0.1}
}

func (t *TrainOptions) fillDefaults() {
	if t.WRatio <= 0 || t.WRatio >= 1 {
		t.WRatio = 0.1
	}
}

// Trained bundles a learned policy with the options it was trained for,
// so it can be persisted and later applied without reassembling the
// configuration by hand.
type Trained struct {
	Opts   Options
	Policy *rl.Policy

	met *coreMetricsSet // where runs flush their counts; nil for obs.Default()
}

// UseRegistry makes this Trained's runs (Simplify, SimplifyGreedy and
// SimplifyGreedyCtx) flush their run, step and policy-fallback counts into
// reg instead of obs.Default(), still once per run, as
// Streamer.UseRegistry does for a stream. The HTTP server calls it on the
// clones its handlers run, so the counts land in the registry its
// /metrics endpoint serves.
func (tr *Trained) UseRegistry(reg *obs.Registry) { tr.met = coreMetricsFor(reg) }

// Train learns a policy for the given options over a repository of
// training trajectories (the paper samples 1,000 trajectories and runs 10
// episodes per trajectory). It returns the best policy observed together
// with training statistics.
func Train(dataset []traj.Trajectory, opts Options, to TrainOptions) (*Trained, *rl.TrainResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	to.fillDefaults()
	envs, err := buildTrainEnvs(dataset, opts, to)
	if err != nil {
		return nil, nil, err
	}
	r := rand.New(rand.NewSource(to.RL.Seed))
	hidden := to.RL.Hidden
	if hidden <= 0 {
		hidden = rl.DefaultTrainConfig().Hidden
	}
	p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), hidden, r)
	if err != nil {
		return nil, nil, err
	}
	initSkipBias(p, opts)
	res, err := rl.TrainPolicy(p, envs, to.RL)
	if err != nil {
		return nil, nil, err
	}
	// Use the final policy: single-episode rewards are not comparable
	// across trajectories of different difficulty, so the "best-episode"
	// snapshot tends to capture an easy trajectory rather than a good
	// policy when the training repository is heterogeneous.
	return &Trained{Opts: opts, Policy: res.Final}, res, nil
}

// ResumeTrain continues a Train run that checkpointed itself (TrainOptions
// with RL.Checkpoint set) and was interrupted. dataset and opts must be
// those of the original run: the environments are rebuilt from them the
// same deterministic way, so the resumed run finishes with the
// bit-identical policy of an uninterrupted one. Checkpointing stays active
// under the same path, so a resumed run that crashes again can itself be
// resumed.
func ResumeTrain(dataset []traj.Trajectory, opts Options, to TrainOptions) (*Trained, *rl.TrainResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	to.fillDefaults()
	if to.RL.Checkpoint == "" {
		return nil, nil, fmt.Errorf("core: resume needs TrainOptions.RL.Checkpoint to name the checkpoint file")
	}
	ck, err := rl.ReadCheckpointFile(to.RL.Checkpoint)
	if err != nil {
		return nil, nil, err
	}
	if ck.Policy.Spec.In != opts.StateSize() || ck.Policy.Spec.Out != opts.NumActions() {
		return nil, nil, fmt.Errorf("core: checkpoint policy shape (%d in, %d out) does not match options %s (want %d, %d)",
			ck.Policy.Spec.In, ck.Policy.Spec.Out, opts.Name(), opts.StateSize(), opts.NumActions())
	}
	envs, err := buildTrainEnvs(dataset, opts, to)
	if err != nil {
		return nil, nil, err
	}
	res, err := rl.ResumePolicy(ck, envs, to.RL)
	if err != nil {
		return nil, nil, err
	}
	return &Trained{Opts: opts, Policy: res.Final}, res, nil
}

// buildTrainEnvs constructs the per-trajectory training environments.
// Deterministic in its inputs: Train and ResumeTrain must see identical
// environment sequences for checkpoint resume to replay the original run.
func buildTrainEnvs(dataset []traj.Trajectory, opts Options, to TrainOptions) ([]rl.Env, error) {
	if len(dataset) == 0 {
		return nil, fmt.Errorf("core: empty training dataset")
	}
	envs := make([]rl.Env, 0, len(dataset))
	for _, t := range dataset {
		w := trainBudget(len(t), to)
		if len(t) <= w {
			continue // nothing to learn from
		}
		envs = append(envs, newEnv(t, w, opts, true))
	}
	if len(envs) == 0 {
		return nil, fmt.Errorf("core: no usable training trajectories (all shorter than W)")
	}
	return envs, nil
}

// initSkipBias starts the skip actions rare: a skipped point can never be
// recovered, and a policy that skips at the roughly uniform rate of a
// fresh softmax throws away ~J/(K+J) of the trajectory unseen before it
// has learned when skipping is safe. A negative output bias (~2% initial
// skip probability per skip action) makes skipping opt-in: the gradient
// raises it exactly where skips prove cheap.
func initSkipBias(p *rl.Policy, opts Options) {
	if opts.J == 0 {
		return
	}
	layers := p.Net.Layers
	out, ok := layers[len(layers)-1].(*nn.Dense)
	if !ok {
		return
	}
	for a := opts.K; a < opts.K+opts.J; a++ {
		out.B.Val[a] = -3
	}
}

func trainBudget(n int, to TrainOptions) int {
	return max(int(to.WRatio*float64(n)), minTrainW)
}

// Simplify applies the trained policy to t with budget w in the paper's
// mode-dependent inference: the online variant samples (from r, or from
// a source seeded 0 when r is nil), the batch variants take the argmax.
func (tr *Trained) Simplify(t traj.Trajectory, w int, r *rand.Rand) ([]int, error) {
	sample := tr.Opts.Variant == Online
	if sample && r == nil {
		r = rand.New(rand.NewSource(0))
	}
	return simplifyInto(context.Background(), tr.met, tr.Policy, t, w, tr.Opts, sample, r)
}

// SimplifyGreedy applies the trained policy deterministically (argmax),
// regardless of variant.
func (tr *Trained) SimplifyGreedy(t traj.Trajectory, w int) ([]int, error) {
	return simplifyInto(context.Background(), tr.met, tr.Policy, t, w, tr.Opts, false, nil)
}

// SimplifyGreedyCtx is SimplifyGreedy honoring a context for cancellation.
func (tr *Trained) SimplifyGreedyCtx(ctx context.Context, t traj.Trajectory, w int) ([]int, error) {
	return simplifyInto(ctx, tr.met, tr.Policy, t, w, tr.Opts, false, nil)
}

// savedTrained is the JSON wire format of a Trained policy.
type savedTrained struct {
	Measure string          `json:"measure"`
	Variant string          `json:"variant"`
	K       int             `json:"k"`
	J       int             `json:"j"`
	Policy  json.RawMessage `json:"policy"`
}

// Save writes the trained policy with its configuration.
func (tr *Trained) Save(w io.Writer) error {
	var pbuf bytes.Buffer
	if err := tr.Policy.Save(&pbuf); err != nil {
		return err
	}
	sv := savedTrained{
		Measure: tr.Opts.Measure.String(),
		Variant: variantTag(tr.Opts.Variant),
		K:       tr.Opts.K,
		J:       tr.Opts.J,
		Policy:  json.RawMessage(pbuf.Bytes()),
	}
	return json.NewEncoder(w).Encode(&sv)
}

// LoadTrained reads a policy written by Save.
func LoadTrained(r io.Reader) (*Trained, error) {
	var sv savedTrained
	if err := json.NewDecoder(r).Decode(&sv); err != nil {
		return nil, fmt.Errorf("core: decode trained policy: %w", err)
	}
	m, err := errm.Parse(sv.Measure)
	if err != nil {
		return nil, err
	}
	v, err := ParseVariant(sv.Variant)
	if err != nil {
		return nil, err
	}
	p, err := rl.LoadPolicy(bytes.NewReader(sv.Policy))
	if err != nil {
		return nil, err
	}
	tr := &Trained{Opts: Options{Measure: m, Variant: v, K: sv.K, J: sv.J}, Policy: p}
	if err := tr.Opts.Validate(); err != nil {
		return nil, err
	}
	if p.Spec.In != tr.Opts.StateSize() || p.Spec.Out != tr.Opts.NumActions() {
		return nil, fmt.Errorf("core: saved policy shape does not match its options")
	}
	return tr, nil
}

func variantTag(v Variant) string {
	switch v {
	case Plus:
		return "rlts+"
	case PlusPlus:
		return "rlts++"
	default:
		return "rlts"
	}
}
