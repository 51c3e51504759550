package eval

import (
	"math/rand"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/traj"
)

// ExpInference is the inference-mode ablation behind the paper's §VI-A
// choice: "for the online mode, we sample an action with the probability
// outputted by the softmax ... and for the batch mode, we take the action
// with the maximum probability based on empirical findings". It runs both
// selection rules for both an online (RLTS) and a batch (RLTS+) policy.
func ExpInference(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "infer",
		Title:   "Action selection at inference: sampling vs greedy (SED)",
		Columns: []string{"Algorithm", "Selection", "Mean SED error"},
	}
	data := c.EvalData(gen.Geolife(), c.Scale.EvalTrajectories, c.Scale.EvalLen)
	m := errm.SED
	const wRatio = 0.1
	for _, variant := range []core.Variant{core.Online, core.Plus} {
		opts := core.DefaultOptions(m, variant)
		tr, err := c.Policy(opts)
		if err != nil {
			return nil, err
		}
		for _, sample := range []bool{true, false} {
			sel := "greedy"
			if sample {
				sel = "sampling"
			}
			r := rand.New(rand.NewSource(c.Seed + 3))
			a := Algorithm{
				Name: tr.Opts.Name(),
				Run: func(t traj.Trajectory, w int) ([]int, error) {
					return core.Simplify(tr.Policy, t, w, opts, sample, r)
				},
			}
			// Serial RunSet: the closure shares the cached policy (whose
			// network scratch is not concurrency-safe) and one RNG.
			res, err := RunSet(a, data, wRatio, m, 1)
			if err != nil {
				return nil, err
			}
			tb.AddRow(tr.Opts.Name(), sel, fmtErr(res.MeanErr))
		}
	}
	tb.Notes = append(tb.Notes,
		"paper §VI-A: sampling is used online and argmax in batch, 'based on empirical findings'")
	return tb, nil
}
