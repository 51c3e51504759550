package eval

import (
	"fmt"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/traj"
)

// ExpDirty is a robustness extension experiment for the dirty-ingest
// path: every hostile generator family is run through the repair stage
// (reorder window 16, 60 m/s speed gate — the serving defaults for a
// Geolife-like profile) and the surviving trajectory is simplified by a
// learned policy, two budget-bounded online heuristics and a batch
// baseline. The per-defect-class columns show which corruption, after
// repair, still costs simplification quality: a family whose column
// matches "clean" is fully absorbed by the repair stage; a gap is
// residual damage the simplifiers must carry.
func ExpDirty(c *Context) (*Table, error) {
	m := errm.SED
	cfg := traj.RepairConfig{Window: 16, MaxSpeed: 60}
	families := gen.DirtyFamilies()

	tb := &Table{
		ID:      "dirty",
		Title:   "Dirty-ingest robustness (repair window 16, gate 60 m/s; SED, W = 0.1|T|)",
		Columns: append([]string{"Algorithm", "clean"}, familyNames(families)...),
	}

	tr, err := c.Policy(core.DefaultOptions(m, core.Plus))
	if err != nil {
		return nil, err
	}
	algos := []Algorithm{c.rlts(tr)}
	for _, a := range OnlineBaselines(m) {
		if a.Name == "STTrace" || a.Name == "SQUISH-E" {
			algos = append(algos, a)
		}
	}
	for _, a := range BatchBaselines(m) {
		if a.Name == "Bottom-Up" {
			algos = append(algos, a)
		}
	}

	clean := c.EvalData(gen.Geolife(), c.Scale.EvalTrajectories/2+1, c.Scale.EvalLen)
	sets := make([][]traj.Trajectory, 0, len(families)+1)
	sets = append(sets, clean)
	for fi, fam := range families {
		var rep traj.RepairReport
		set := make([]traj.Trajectory, 0, len(clean))
		for ti, t := range clean {
			raw := gen.Raw(fam.Corrupt(t, c.Seed+int64(1000*fi+ti)))
			got, r, err := traj.Repair(raw, cfg)
			if err != nil {
				return nil, fmt.Errorf("eval: dirty/%s trajectory %d: %w", fam.Name, ti, err)
			}
			rep = rep.Add(r)
			set = append(set, got)
		}
		sets = append(sets, set)
		tb.Notes = append(tb.Notes, fmt.Sprintf(
			"%s: %d pushed, %d emitted (%d non-finite, %d late, %d reordered in window, %d duplicate, %d outlier)",
			fam.Name, rep.Pushed, rep.Emitted, rep.NonFinite, rep.Late, rep.Reordered, rep.Duplicates, rep.Outliers))
	}

	for _, a := range algos {
		row := []string{a.Name}
		for _, set := range sets {
			res, err := RunSet(a, set, 0.1, m, c.Workers)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtErr(res.MeanErr))
		}
		tb.AddRow(row...)
	}
	tb.Notes = append(tb.Notes,
		"extension experiment: each column simplifies the repaired output of one corruption family",
		"errors are measured against the repaired trajectory — a column near 'clean' means the repair stage absorbed that defect class")
	return tb, nil
}

func familyNames(fams []gen.DirtyConfig) []string {
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	return names
}
