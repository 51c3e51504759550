package eval

import (
	"math/rand"
	"strings"
	"testing"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/geo"
	"rlts/internal/rl"
	"rlts/internal/traj"
)

// extremeMag mirrors the differential harness's adversarial coordinate
// magnitude: far outside int64 range, so a naive float->int conversion
// in the seed hash is implementation-defined.
const extremeMag = 6e307

// extremeTraj builds a trajectory whose first and last points sit at
// huge signed coordinates — the inputs that made the old
// int64(t[0].X*1e3) seed derivation a hazard.
func extremeTraj(seed int64, n int, signX, signY float64) traj.Trajectory {
	r := rand.New(rand.NewSource(seed))
	t := make(traj.Trajectory, 0, n)
	tm := 0.0
	for i := 0; i < n; i++ {
		t = append(t, geo.Pt(r.NormFloat64()*100, r.NormFloat64()*100, tm))
		tm += 1 + r.Float64()
	}
	t[0].X = signX * extremeMag
	t[n-1].Y = signY * extremeMag
	return t
}

// onlineTrained wraps an untrained online-variant policy (sampled
// inference, so the derived RNG streams actually matter).
func onlineTrained(t *testing.T) *core.Trained {
	t.Helper()
	opts := core.DefaultOptions(errm.SED, core.Online)
	p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 20, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	return &core.Trained{Opts: opts, Policy: p}
}

// TestRLTSConcurrentExtremeCoordsDeterministic is the regression test
// for the seed-derivation fix: with ±6e307 coordinates, serial and
// parallel evaluation must agree exactly, and the per-trajectory seed
// must still distinguish trajectories that differ only in the sign of
// an extreme coordinate (the old conversion collapsed every
// out-of-range value onto one sentinel).
func TestRLTSConcurrentExtremeCoordsDeterministic(t *testing.T) {
	tr := onlineTrained(t)
	data := []traj.Trajectory{
		extremeTraj(1, 40, +1, +1),
		extremeTraj(2, 40, -1, +1),
		extremeTraj(3, 50, +1, -1),
		extremeTraj(4, 60, -1, -1),
	}
	a := RLTSAlgorithmConcurrent(tr, 7)
	serial, err := RunSet(a, data, 0.2, errm.SED, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSet(a, data, 0.2, errm.SED, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.MeanErr != parallel.MeanErr {
		t.Errorf("extreme-coordinate eval not scheduling-independent: serial %v, parallel %v",
			serial.MeanErr, parallel.MeanErr)
	}

	plus := extremeTraj(5, 40, +1, +1)
	minus := append(traj.Trajectory(nil), plus...)
	minus[0].X = -minus[0].X
	if trajSeed(7, plus) == trajSeed(7, minus) {
		t.Error("trajSeed collapses opposite extreme coordinates onto one stream")
	}
}

// TestRunSetRejectsMalformedKept is the regression test for the kept-
// index validation: an algorithm emitting a non-subsequence must yield
// a typed error from both the serial and parallel paths, not a panic or
// silently wrong statistics.
func TestRunSetRejectsMalformedKept(t *testing.T) {
	data := []traj.Trajectory{
		gen.New(gen.Geolife(), 1).Trajectory(50),
		gen.New(gen.Geolife(), 2).Trajectory(50),
	}
	malformed := []struct {
		name string
		kept func(n int) []int
	}{
		{"not increasing", func(n int) []int { return []int{0, 7, 3, n - 1} }},
		{"missing endpoint", func(n int) []int { return []int{0, n / 2} }},
		{"empty", func(n int) []int { return nil }},
	}
	for _, mc := range malformed {
		bad := Algorithm{Name: "bad-" + mc.name, Run: func(tr traj.Trajectory, w int) ([]int, error) {
			return mc.kept(len(tr)), nil
		}}
		if _, err := RunSet(bad, data, 0.1, errm.SED, 1); err == nil || !strings.Contains(err.Error(), "errm:") {
			t.Errorf("RunSet at 1 worker %s: err = %v, want errm validation error", mc.name, err)
		}
		if _, err := RunSet(bad, data, 0.1, errm.SED, 2); err == nil || !strings.Contains(err.Error(), "errm:") {
			t.Errorf("RunSet at 2 workers %s: err = %v, want errm validation error", mc.name, err)
		}
	}
}
