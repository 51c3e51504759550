package eval

import (
	"fmt"
	"time"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
)

// Fig5 reproduces Figure 5: efficiency vs trajectory length |T| on the
// Truck substitute under SED, with W = 0.1|T|. Online algorithms report
// time per point; batch algorithms report total time.
func Fig5(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "fig5",
		Title:   "Efficiency vs |T| (Truck substitute, SED, W = 0.1|T|)",
		Columns: []string{"Mode", "Algorithm", "Metric"},
	}
	for _, n := range c.Scale.EffLens {
		tb.Columns = append(tb.Columns, fmt.Sprintf("|T|=%d", n))
	}
	m := errm.SED

	onlineAlgos, batchAlgos, err := efficiencyAlgos(c, m)
	if err != nil {
		return nil, err
	}
	appendRows := func(mode string, algos []Algorithm, perPoint bool) error {
		for _, a := range algos {
			metric := "total"
			if perPoint {
				metric = "per point"
			}
			row := []string{mode, a.Name, metric}
			for _, n := range c.Scale.EffLens {
				data := c.EvalData(gen.Truck(), efficiencyCount(c), n)
				// Timing experiment: run serially so per-trajectory
				// wall-clock is not inflated by goroutine time-slicing.
				res, err := RunSet(a, data, c.Scale.EffFixedW, m, 1)
				if err != nil {
					return err
				}
				if perPoint {
					row = append(row, fmtDurFine(res.PerPoint()))
				} else {
					row = append(row, fmtDur(res.Total))
				}
			}
			tb.AddRow(row...)
		}
		return nil
	}
	if err := appendRows("online", onlineAlgos, true); err != nil {
		return nil, err
	}
	if err := appendRows("batch", batchAlgos, false); err != nil {
		return nil, err
	}
	tb.Notes = append(tb.Notes,
		"paper: online — RLTS/RLTS-Skip slightly slower per point than STTrace/SQUISH/SQUISH-E (network inference vs a comparison), all far below the 3s sampling rate",
		"paper: batch — RLTS+ and RLTS-Skip+ faster than Bottom-Up; Top-Down slowest by orders of magnitude at large |T|")
	return tb, nil
}

// Fig6 reproduces Figure 6: efficiency vs the budget W at fixed |T| on the
// Truck substitute under SED.
func Fig6(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "fig6",
		Title:   fmt.Sprintf("Efficiency vs W (Truck substitute, SED, |T|=%d)", c.Scale.EffLenForW),
		Columns: []string{"Mode", "Algorithm", "Metric", "W=0.1", "W=0.2", "W=0.3", "W=0.4", "W=0.5"},
	}
	m := errm.SED
	ratios := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	data := c.EvalData(gen.Truck(), efficiencyCount(c), c.Scale.EffLenForW)

	onlineAlgos, batchAlgos, err := efficiencyAlgos(c, m)
	if err != nil {
		return nil, err
	}
	appendRows := func(mode string, algos []Algorithm, perPoint bool) error {
		for _, a := range algos {
			metric := "total"
			if perPoint {
				metric = "per point"
			}
			row := []string{mode, a.Name, metric}
			for _, ratio := range ratios {
				// Timing experiment: serial for measurement fidelity.
				res, err := RunSet(a, data, ratio, m, 1)
				if err != nil {
					return err
				}
				if perPoint {
					row = append(row, fmtDurFine(res.PerPoint()))
				} else {
					row = append(row, fmtDur(res.Total))
				}
			}
			tb.AddRow(row...)
		}
		return nil
	}
	if err := appendRows("online", onlineAlgos, true); err != nil {
		return nil, err
	}
	if err := appendRows("batch", batchAlgos, false); err != nil {
		return nil, err
	}
	tb.Notes = append(tb.Notes,
		"paper: batch — RLTS+ beats Top-Down by ~2 orders of magnitude and beats Bottom-Up with a gap that narrows as W grows")
	return tb, nil
}

// ExpScale reproduces §VI-B(8): wall-clock on the single longest
// trajectory (paper: ~383,000 points; scaled here) for the batch methods.
func ExpScale(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "scale",
		Title:   fmt.Sprintf("Scalability on the longest trajectory (%d points, SED, W=0.1|T|)", c.Scale.LongestLen),
		Columns: []string{"Algorithm", "Time"},
	}
	m := errm.SED
	long := c.EvalData(gen.Truck(), 1, c.Scale.LongestLen)
	w := budget(c.Scale.LongestLen, 0.1)

	var algos []Algorithm
	for _, j := range []int{2, 0} { // paper order: RLTS-Skip+, RLTS+, Bottom-Up, Top-Down
		opts := core.Options{Measure: m, Variant: core.Plus, K: 3, J: j}
		tr, err := c.Policy(opts)
		if err != nil {
			return nil, err
		}
		algos = append(algos, c.rlts(tr))
	}
	algos = append(algos, BatchBaselines(m)...)
	for _, a := range algos {
		start := time.Now()
		if _, err := a.Run(long[0], w); err != nil {
			return nil, err
		}
		tb.AddRow(a.Name, fmtDur(time.Since(start)))
	}
	tb.Notes = append(tb.Notes, "paper (383k points): RLTS-Skip+ 2,843s < RLTS+ 3,412s < Bottom-Up 4,952s << Top-Down 98,427s")
	return tb, nil
}

// Fig7 reproduces Figure 7: the case study — one trajectory simplified by
// each online algorithm with its SED error. The SVG rendering of the
// polylines lives in examples/casestudy.
func Fig7(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "fig7",
		Title:   "Case study (online mode, Geolife substitute, W = 0.1|T|)",
		Columns: []string{"Algorithm", "SED error", "Kept points"},
	}
	m := errm.SED
	tr := c.EvalData(gen.Geolife(), 1, c.Scale.EvalLen)[0]
	w := budget(len(tr), 0.1)

	var algos []Algorithm
	for _, j := range []int{0, 2} {
		opts := core.Options{Measure: m, Variant: core.Online, K: 3, J: j}
		p, err := c.Policy(opts)
		if err != nil {
			return nil, err
		}
		algos = append(algos, c.rlts(p))
	}
	algos = append(algos, OnlineBaselines(m)...)
	for _, a := range algos {
		kept, err := a.Run(tr, w)
		if err != nil {
			return nil, err
		}
		tb.AddRow(a.Name, fmtErr(errm.Error(m, tr, kept)), fmt.Sprintf("%d", len(kept)))
	}
	tb.Notes = append(tb.Notes, "paper: RLTS eps=2.851 vs SQUISH/SQUISH-E eps=5.987, STTrace eps=5.860 — roughly half")
	return tb, nil
}

// efficiencyAlgos assembles the standard online and batch line-ups used by
// the efficiency experiments.
func efficiencyAlgos(c *Context, m errm.Measure) (online, batch []Algorithm, err error) {
	for _, j := range []int{0, 2} {
		opts := core.Options{Measure: m, Variant: core.Online, K: 3, J: j}
		tr, err := c.Policy(opts)
		if err != nil {
			return nil, nil, err
		}
		online = append(online, c.rlts(tr))
	}
	online = append(online, OnlineBaselines(m)...)
	for _, j := range []int{0, 2} {
		opts := core.Options{Measure: m, Variant: core.Plus, K: 3, J: j}
		tr, err := c.Policy(opts)
		if err != nil {
			return nil, nil, err
		}
		batch = append(batch, c.rlts(tr))
	}
	batch = append(batch, BatchBaselines(m)...)
	return online, batch, nil
}

// efficiencyCount caps the dataset size of the timing experiments: the
// paper uses 100 trajectories per length setting.
func efficiencyCount(c *Context) int {
	n := c.Scale.EvalTrajectories / 4
	if n < 2 {
		n = 2
	}
	if n > 100 {
		n = 100
	}
	return n
}
