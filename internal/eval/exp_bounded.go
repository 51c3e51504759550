package eval

import (
	"fmt"
	"strings"
	"time"

	baseOnline "rlts/internal/baseline/online"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/minsize"
	"rlts/internal/traj"
)

// ExpBounded compares the error-bounded backends of the bound=eps
// serving mode — the one-pass CISED/OPERB against the Min-Size search
// over the RL policy and over the greedy dual — on all three dataset
// substitutes. The bound is set per dataset to the mean inter-point
// step (a realistic "about one sample of slack" target). Every result
// is re-scored by the exact oracle; "bound met" counts trajectories.
func ExpBounded(c *Context) (*Table, error) {
	tb := &Table{
		ID:      "bounded",
		Title:   "Error-bounded mode: one-pass vs Min-Size search (bound = mean step)",
		Columns: []string{"Dataset", "Algorithm", "Measure", "Kept %", "Mean error", "Bound met", "Time"},
	}
	type backend struct {
		name string
		m    errm.Measure
		run  func(t traj.Trajectory, eps float64) ([]int, error)
	}
	profiles := []struct {
		name string
		cfg  gen.Config
	}{
		{"Geolife", gen.Geolife()}, {"T-Drive", gen.TDrive()}, {"Truck", gen.Truck()},
	}
	count := efficiencyCount(c)
	var fewest []string // per dataset, the SED backend keeping the fewest points
	for _, pr := range profiles {
		data := c.EvalData(pr.cfg, count, c.Scale.EvalLen)
		eps := meanStep(data)
		backends := []backend{
			{"CISED", errm.SED, baseOnline.CISED},
			{"OPERB", errm.PED, baseOnline.OPERB},
			{"Min-Size(Greedy)", errm.SED, func(t traj.Trajectory, eps float64) ([]int, error) {
				return minsize.Greedy(t, eps, errm.SED)
			}},
		}
		p, err := c.Policy(core.Options{Measure: errm.SED, Variant: core.Plus, K: 3, J: 0})
		if err != nil {
			return nil, err
		}
		backends = append(backends, backend{"Min-Size(RLTS+)", errm.SED, func(t traj.Trajectory, eps float64) ([]int, error) {
			return minsize.SearchBudget(t, eps, errm.SED, p.SimplifyGreedy)
		}})
		type result struct {
			name    string
			kept    float64
			elapsed time.Duration
		}
		var sed []result
		for _, b := range backends {
			var kept, total, met int
			var errSum float64
			start := time.Now()
			for _, t := range data {
				ix, err := b.run(t, eps)
				if err != nil {
					return nil, fmt.Errorf("eval: %s on %s: %w", b.name, pr.name, err)
				}
				e := errm.Error(b.m, t, ix)
				kept += len(ix)
				total += len(t)
				errSum += e
				if e <= eps {
					met++
				}
			}
			elapsed := time.Since(start)
			share := 100 * float64(kept) / float64(total)
			tb.AddRow(pr.name, b.name, b.m.String(),
				fmt.Sprintf("%.1f%%", share),
				fmtErr(errSum/float64(len(data))),
				fmt.Sprintf("%d/%d", met, len(data)),
				fmtDur(elapsed))
			if b.m == errm.SED {
				sed = append(sed, result{b.name, share, elapsed})
			}
		}
		best, search := sed[0], sed[len(sed)-1] // the policy search is the last SED backend
		for _, r := range sed[1:] {
			if r.kept < best.kept {
				best = r
			}
		}
		note := fmt.Sprintf("%s %s %.1f%%", pr.name, best.name, best.kept)
		if best.name != search.name {
			note += fmt.Sprintf(" (%s %.1f%% in %.0fx the time)", search.name, search.kept,
				search.elapsed.Seconds()/best.elapsed.Seconds())
		}
		fewest = append(fewest, note)
	}
	tb.Notes = append(tb.Notes,
		"CISED/OPERB guarantee the bound in one O(n) pass; the Min-Size search re-verifies every probe and pays O(n log n) policy runs for it",
		"fewest kept points among the SED backends: "+strings.Join(fewest, ", "))
	return tb, nil
}

// meanStep returns the mean inter-point distance across a dataset — the
// natural length scale for an SED/PED bound.
func meanStep(data []traj.Trajectory) float64 {
	var length float64
	var segs int
	for _, t := range data {
		length += t.PathLength()
		segs += len(t) - 1
	}
	if segs == 0 {
		return 1
	}
	return length / float64(segs)
}
