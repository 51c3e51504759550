// Command rlts-simplify reduces every trajectory in a CSV file to a
// storage budget, using either a trained RLTS policy or one of the
// baseline algorithms, and reports the resulting errors.
//
// Usage:
//
//	rlts-simplify -in trips.csv -policy policy.json -ratio 0.1 -o out.csv
//	rlts-simplify -in trips.csv -algo bottomup -measure SED -w 50 -o out.csv
//
// Baselines: sttrace, squish, squishe (online); topdown, bottomup,
// bellman, spansearch (batch); uniform.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"rlts/internal/baseline"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/obs"
	"rlts/internal/storage"
	"rlts/internal/traj"
)

func main() {
	var (
		in      = flag.String("in", "", "input CSV file (traj_id,x,y,t)")
		out     = flag.String("o", "", "output CSV file for the simplified trajectories (default: none)")
		policy  = flag.String("policy", "", "trained RLTS policy file (from rlts-train)")
		algo    = flag.String("algo", "", "baseline algorithm name (alternative to -policy)")
		measure = flag.String("measure", "SED", "error measure for baselines and reporting")
		w       = flag.Int("w", 0, "absolute storage budget per trajectory")
		ratio   = flag.Float64("ratio", 0.1, "storage budget as a fraction of |T| (ignored when -w is set)")
		seed    = flag.Int64("seed", 1, "seed for stochastic policies")
		verbose = flag.Bool("v", false, "log per-trajectory progress")
		logJSON = flag.Bool("log-json", false, "emit logs as JSON instead of text")
	)
	flag.Parse()
	logger := obs.CommandLogger(os.Stderr, "rlts-simplify", *verbose, *logJSON)

	if *in == "" {
		fail(fmt.Errorf("provide an input file with -in"))
	}
	m, err := errm.Parse(*measure)
	if err != nil {
		fail(err)
	}
	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	dataset, err := traj.ReadCSV(f)
	f.Close()
	if err != nil {
		fail(err)
	}

	run, name, policyMeasure, err := resolveAlgorithm(*policy, *algo, m, *seed)
	if err != nil {
		fail(err)
	}
	if policyMeasure != nil {
		// A trained policy dictates its own error measure; report under it
		// rather than the (possibly defaulted) -measure flag.
		m = *policyMeasure
	}

	var (
		results  []traj.Trajectory
		totalErr float64
		totalDur time.Duration
		points   int
	)
	for i, t := range dataset {
		budget := *w
		if budget <= 0 {
			budget = int(*ratio * float64(len(t)))
		}
		if budget < 2 {
			budget = 2
		}
		start := time.Now()
		kept, err := run(t, budget)
		totalDur += time.Since(start)
		if err != nil {
			fail(fmt.Errorf("trajectory %d: %w", i, err))
		}
		simplified := t.Pick(kept)
		results = append(results, simplified)
		totalErr += errm.Error(m, t, kept)
		points += len(t)
		logger.Debug("trajectory simplified", "index", i, "in_points", len(t),
			"out_points", len(kept), "budget", budget)
	}

	fmt.Printf("algorithm:      %s\n", name)
	fmt.Printf("trajectories:   %d (%d points)\n", len(dataset), points)
	fmt.Printf("mean %s error: %.6g\n", m, totalErr/float64(len(dataset)))
	fmt.Printf("total time:     %v (%.3f us/point)\n",
		totalDur.Round(time.Microsecond), float64(totalDur.Microseconds())/float64(points))

	if *out != "" {
		err := storage.WriteAtomic(*out, func(w io.Writer) error {
			return traj.WriteCSV(w, results)
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("written:        %s\n", *out)
	}
}

type runFunc func(t traj.Trajectory, w int) ([]int, error)

// resolveAlgorithm returns the runner, its display name and — when a
// trained policy is loaded — the measure it was trained for (nil for
// baselines, which use the -measure flag).
func resolveAlgorithm(policyPath, algo string, m errm.Measure, seed int64) (runFunc, string, *errm.Measure, error) {
	switch {
	case policyPath != "" && algo != "":
		return nil, "", nil, fmt.Errorf("use either -policy or -algo, not both")
	case policyPath != "":
		f, err := os.Open(policyPath)
		if err != nil {
			return nil, "", nil, err
		}
		defer f.Close()
		trained, err := core.LoadTrained(f)
		if err != nil {
			return nil, "", nil, err
		}
		r := rand.New(rand.NewSource(seed))
		pm := trained.Opts.Measure
		return func(t traj.Trajectory, w int) ([]int, error) {
			return trained.Simplify(t, w, r)
		}, trained.Opts.Name(), &pm, nil
	case algo == "":
		return nil, "", nil, fmt.Errorf("provide -policy FILE or -algo NAME")
	}
	b := baseline.Lookup(algo)
	if b == nil {
		return nil, "", nil, fmt.Errorf("unknown algorithm %q", algo)
	}
	return func(t traj.Trajectory, w int) ([]int, error) { return b.Run(t, w, m) }, b.Name, nil, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rlts-simplify: %v\n", err)
	os.Exit(1)
}
