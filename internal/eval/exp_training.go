package eval

import (
	"fmt"
	"time"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
)

// Table2 reproduces Table II: the wall-clock cost of training RLTS and
// RLTS-Skip policies (online mode) and RLTS+ / RLTS-Skip+ policies (batch
// mode) under each error measurement.
func Table2(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "table2",
		Title:   "Training time (Geolife substitute)",
		Columns: []string{"Algorithm", "Mode", "SED", "PED", "DAD", "SAD"},
	}
	type variantRow struct {
		name    string
		variant core.Variant
		j       int
		mode    string
	}
	rowsSpec := []variantRow{
		{"RLTS", core.Online, 0, "online"},
		{"RLTS+", core.Plus, 0, "batch"},
		{"RLTS-Skip", core.Online, 2, "online"},
		{"RLTS-Skip+", core.Plus, 2, "batch"},
	}
	ds := c.TrainData(gen.Geolife())
	for _, rs := range rowsSpec {
		row := []string{rs.name, rs.mode}
		for _, m := range errm.Measures {
			opts := core.Options{Measure: m, Variant: rs.variant, K: 3, J: rs.j}
			to := core.DefaultTrainOptions()
			to.RL.Episodes = c.Scale.Episodes
			to.RL.Epochs = c.Scale.Epochs
			to.RL.Seed = c.Seed
			to.RL.Workers = c.Workers
			start := time.Now()
			tr, _, err := core.Train(ds, opts, to)
			if err != nil {
				return nil, err
			}
			// Cache the freshly trained policy for later experiments.
			key := fmt.Sprintf("%s/%s/k%d/j%d", opts.Name(), opts.Measure, opts.K, opts.J)
			c.policies[key] = tr
			row = append(row, fmtDur(time.Since(start)))
		}
		tb.AddRow(row...)
	}
	tb.Notes = append(tb.Notes,
		"paper (full scale, GPU): several hours per policy; RLTS-Skip cheaper than RLTS because skipped points cost nothing",
		fmt.Sprintf("this run: %d trajectories x %d points x %d episodes x %d epochs",
			c.Scale.TrainTrajectories, c.Scale.TrainLen, c.Scale.Episodes, c.Scale.Epochs))
	return tb, nil
}

// Fig8 reproduces Figure 8: training cost and resulting effectiveness as
// the number of training trajectories grows.
func Fig8(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "fig8",
		Title:   "Training cost vs number of training samples (online mode, SED)",
		Columns: []string{"Train trajectories", "Training time", "Mean SED error"},
	}
	m := errm.SED
	full := c.Scale.TrainTrajectories
	evalSet := c.EvalData(gen.Geolife(), c.Scale.EvalTrajectories, c.Scale.EvalLen)
	// The paper sweeps 500..2500 training trajectories; scale the sweep to
	// the configured repository size.
	fractions := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	g := gen.New(gen.Geolife(), c.Seed+5)
	pool := g.Dataset(full, c.Scale.TrainLen)
	for _, f := range fractions {
		n := int(f * float64(full))
		if n < 1 {
			n = 1
		}
		opts := core.DefaultOptions(m, core.Online)
		to := core.DefaultTrainOptions()
		to.RL.Episodes = c.Scale.Episodes
		to.RL.Epochs = c.Scale.Epochs
		to.RL.Seed = c.Seed
		to.RL.Workers = c.Workers
		start := time.Now()
		tr, _, err := core.Train(pool[:n], opts, to)
		if err != nil {
			return nil, err
		}
		cost := time.Since(start)
		res, err := c.runSet(c.rlts(tr), evalSet, 0.1, m)
		if err != nil {
			return nil, err
		}
		tb.AddRow(fmt.Sprintf("%d", n), fmtDur(cost), fmtErr(res.MeanErr))
	}
	tb.Notes = append(tb.Notes,
		"paper: training cost grows ~linearly with samples; effectiveness improves slightly — 1,000 samples is the chosen trade-off")
	return tb, nil
}
