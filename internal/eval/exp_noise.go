package eval

import (
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
)

// ExpNoise is a robustness extension experiment: how do the online
// algorithms degrade as GPS outliers contaminate the stream? Outliers
// create points with huge apparent drop-cost; heuristics that carry
// errors forward (SQUISH/SQUISH-E) and the learned policy respond
// differently. The policy under test is trained on *clean* data, so this
// also probes distribution shift.
func ExpNoise(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "noise",
		Title:   "Robustness to GPS outliers (online mode, SED, W = 0.1|T|)",
		Columns: []string{"Algorithm", "clean", "0.5% outliers", "2% outliers", "5% outliers"},
	}
	m := errm.SED
	rates := []float64{0, 0.005, 0.02, 0.05}
	const outlierScale = 80 // meters, a strong multipath spike

	tr, err := c.Policy(core.DefaultOptions(m, core.Online))
	if err != nil {
		return nil, err
	}
	algos := append([]Algorithm{c.rlts(tr)}, OnlineBaselines(m)...)
	for _, a := range algos {
		row := []string{a.Name}
		for _, rate := range rates {
			profile := gen.Geolife().WithOutliers(rate, outlierScale)
			data := c.EvalData(profile, c.Scale.EvalTrajectories/2+1, c.Scale.EvalLen)
			res, err := RunSet(a, data, 0.1, m, c.Workers)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtErr(res.MeanErr))
		}
		tb.AddRow(row...)
	}
	tb.Notes = append(tb.Notes,
		"extension experiment: all methods degrade with contamination; the relative ordering under noise is the robustness signal",
		"the RLTS policy was trained on clean data (distribution shift is part of the test)")
	return tb, nil
}
