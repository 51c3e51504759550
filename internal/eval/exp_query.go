package eval

import (
	"fmt"
	"math/rand"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/geo"
	"rlts/internal/query"
)

// ExpQuery measures the downstream cost of simplification that motivates
// the whole problem (paper §I: simplification lowers storage and query
// processing cost): how much do query answers computed on the simplified
// trajectory deviate from answers on the raw one? Two probe workloads:
//
//   - position-at-time: mean distance between PositionAt on raw vs
//     simplified data over random probe times;
//   - spatio-temporal range queries: fraction of random (rectangle, time
//     window) probes answered identically.
//
// This is an extension experiment (not a paper table), recorded as such
// in DESIGN.md.
func ExpQuery(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "query",
		Title:   "Query answering on simplified trajectories (W = 0.1|T|, SED policies)",
		Columns: []string{"Algorithm", "Mean position err", "Max position err", "Range agreement"},
	}
	m := errm.SED
	data := c.EvalData(gen.Geolife(), c.Scale.EvalTrajectories, c.Scale.EvalLen)
	const wRatio = 0.1

	var algos []Algorithm
	tr, err := c.Policy(core.DefaultOptions(m, core.Plus))
	if err != nil {
		return nil, err
	}
	algos = append(algos, c.rlts(tr))
	algos = append(algos, BatchBaselines(m)...)
	algos = append(algos, baselines(m, "uniform")...)

	for _, a := range algos {
		r := rand.New(rand.NewSource(c.Seed + 17))
		var sumErr, maxErr float64
		var probes, agree, rangeProbes int
		for _, t := range data {
			w := budget(len(t), wRatio)
			kept, err := a.Run(t, w)
			if err != nil {
				return nil, err
			}
			simp := t.Pick(kept)
			t0, t1 := t[0].T, t[len(t)-1].T
			// Position probes.
			for p := 0; p < 25; p++ {
				ts := t0 + r.Float64()*(t1-t0)
				d := geo.Dist(query.PositionAt(t, ts), query.PositionAt(simp, ts))
				sumErr += d
				if d > maxErr {
					maxErr = d
				}
				probes++
			}
			// Range probes centered near the path so both answers occur.
			for p := 0; p < 10; p++ {
				ts := t0 + r.Float64()*(t1-t0)
				center := query.PositionAt(t, ts)
				half := 20 + r.Float64()*200
				rect := query.Rect{
					MinX: center.X - half + r.NormFloat64()*half,
					MinY: center.Y - half + r.NormFloat64()*half,
				}
				rect.MaxX = rect.MinX + 2*half
				rect.MaxY = rect.MinY + 2*half
				wt := (t1 - t0) * (0.02 + r.Float64()*0.1)
				qs := t0 + r.Float64()*(t1-t0-wt)
				rawAns := query.WithinDuring(t, rect, qs, qs+wt)
				simpAns := query.WithinDuring(simp, rect, qs, qs+wt)
				if rawAns == simpAns {
					agree++
				}
				rangeProbes++
			}
		}
		tb.AddRow(a.Name,
			fmt.Sprintf("%.2fm", sumErr/float64(probes)),
			fmt.Sprintf("%.1fm", maxErr),
			fmt.Sprintf("%.1f%%", 100*float64(agree)/float64(rangeProbes)))
	}
	tb.Notes = append(tb.Notes,
		"extension experiment: quantifies the query-quality cost of a 10x compression; lower position error / higher agreement is better")
	return tb, nil
}
