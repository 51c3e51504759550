package eval

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
)

func quickCtx() *Context {
	return NewContext(QuickScale(), 1, nil)
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "default", "paper", ""} {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("gigantic"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestContextCachesPoliciesAndData(t *testing.T) {
	c := quickCtx()
	opts := core.DefaultOptions(errm.SED, core.Online)
	p1, err := c.Policy(opts)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Policy(opts)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("policy not cached")
	}
	d1 := c.TrainData(gen.Geolife())
	d2 := c.TrainData(gen.Geolife())
	if &d1[0][0] != &d2[0][0] {
		t.Error("training data not cached")
	}
}

func TestRunSetComputesMeanError(t *testing.T) {
	c := quickCtx()
	data := c.EvalData(gen.Geolife(), 4, 100)
	algos := OnlineBaselines(errm.SED)
	res, err := RunSet(algos[0], data, 0.2, errm.SED, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanErr <= 0 {
		t.Errorf("mean error %v, want > 0", res.MeanErr)
	}
	if res.Points != 400 {
		t.Errorf("points %d, want 400", res.Points)
	}
	if res.PerPoint() <= 0 {
		t.Error("per-point time should be positive")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"A", "LongColumn"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	tb.Notes = append(tb.Notes, "a note")
	s := tb.String()
	for _, want := range []string{"demo", "LongColumn", "333", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 20 {
		t.Errorf("registry has %d experiments, want 20 (every table and figure, plus the extension experiments)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Errorf("experiment %q has no runner", e.ID)
		}
	}
	if _, err := ExperimentByID("fig4"); err != nil {
		t.Error(err)
	}
	if _, err := ExperimentByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestAllExperimentsRunAtQuickScale is the harness smoke test: every
// table/figure reproduction must complete and produce a non-empty table.
// Policies are shared through the context cache, so this stays fast.
func TestAllExperimentsRunAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds-long; skipped in -short")
	}
	c := quickCtx()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tb, err := e.Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) == 0 {
				t.Error("empty table")
			}
			if tb.ID != e.ID {
				t.Errorf("table id %q, want %q", tb.ID, e.ID)
			}
			if !strings.Contains(tb.String(), tb.Title) {
				t.Error("rendering broken")
			}
		})
	}
}

func TestBellmanExperimentShape(t *testing.T) {
	// Bellman must never lose to RLTS+ (it is exact); verify from the
	// table numbers for SED.
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	c := quickCtx()
	tb, err := ExpBellman(c)
	if err != nil {
		t.Fatal(err)
	}
	var bellman, rlts float64
	for _, row := range tb.Rows {
		if row[0] != "SED" {
			continue
		}
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad cell %q", row[2])
		}
		switch row[1] {
		case "Bellman":
			bellman = v
		case "RLTS+":
			rlts = v
		}
	}
	if bellman > rlts+1e-9 {
		t.Errorf("Bellman SED %v worse than RLTS+ %v — exact algorithm beaten", bellman, rlts)
	}
}

// TestBoundedNoteNamesFewestKept holds the bounded experiment's note to
// its own rows: for every dataset it must name an SED backend whose kept
// share is the smallest of that dataset's SED rows.
func TestBoundedNoteNamesFewestKept(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	tb, err := ExpBounded(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	note := tb.Notes[len(tb.Notes)-1]
	fewest := map[string]float64{}
	for _, row := range tb.Rows {
		if row[2] != "SED" {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", row[3])
		}
		if cur, ok := fewest[row[0]]; !ok || v < cur {
			fewest[row[0]] = v
		}
	}
	if len(fewest) != 3 {
		t.Fatalf("SED rows for %d datasets, want 3", len(fewest))
	}
	for ds, v := range fewest {
		named := false
		for _, row := range tb.Rows {
			if row[0] == ds && row[2] == "SED" && row[3] == fmt.Sprintf("%.1f%%", v) &&
				strings.Contains(note, ds+" "+row[1]+" "+row[3]) {
				named = true
			}
		}
		if !named {
			t.Errorf("note %q does not name %s's fewest-kept SED row (%.1f%%)", note, ds, v)
		}
	}
}

func TestTableCSVExport(t *testing.T) {
	tb := &Table{ID: "demo", Title: "t", Columns: []string{"A", "B"}}
	tb.AddRow("1", "x,y") // comma must be quoted
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "A,B") || !strings.Contains(got, `"x,y"`) {
		t.Errorf("CSV output wrong:\n%s", got)
	}
	dir := t.TempDir()
	path, err := tb.SaveCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "demo.csv" {
		t.Errorf("path = %s", path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Error(err)
	}
}
