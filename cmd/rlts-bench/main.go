// Command rlts-bench regenerates the paper's tables and figures on the
// synthetic dataset substrate.
//
// Usage:
//
//	rlts-bench -list
//	rlts-bench -exp fig4
//	rlts-bench -exp all -scale default
//	rlts-bench -exp fig5 -scale paper        # paper-size runs take hours
//
// Experiment ids map to the paper as recorded in DESIGN.md's
// per-experiment index; -scale selects quick, default or paper sizing.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rlts/internal/eval"
	"rlts/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id, or \"all\"")
		scale   = flag.String("scale", "default", "scale: quick, default or paper")
		seed    = flag.Int64("seed", 1, "experiment seed")
		list    = flag.Bool("list", false, "list available experiments")
		verbose = flag.Bool("v", false, "log training progress")
		csvDir  = flag.String("csv", "", "also write each table as CSV into this directory")
		workers = flag.Int("workers", 0, "parallel workers for training and evaluation (0 = all CPUs, 1 = serial)")
		logJSON = flag.Bool("log-json", false, "emit logs as JSON instead of text")
		batch   = flag.Bool("batch", false, "run the inference throughput sweep behind batch serving instead of an experiment")
		batchTo = flag.String("batch-out", "", "write the -batch sweep as JSON to this file (default: stdout)")
		load    = flag.Bool("load", false, "run the sustained-load serving benchmark instead of an experiment")
		loadDur = flag.Duration("load-duration", 10*time.Second, "sustained-load measurement window")
		loadCC  = flag.Int("load-conc", 0, "sustained-load concurrent clients (0 = 4*GOMAXPROCS)")
		loadIt  = flag.Int("load-items", 64, "trajectories per sustained-load batch request")
		loadPts = flag.Int("load-points", 100, "points per sustained-load trajectory")
		loadTo  = flag.String("load-out", "", "write the -load summary as JSON to this file (default: stdout)")
	)
	flag.Parse()
	logger := obs.CommandLogger(os.Stderr, "rlts-bench", *verbose, *logJSON)

	if *batch {
		if err := runBatchSweep(*batchTo, *seed); err != nil {
			fail(err)
		}
		return
	}
	if *load {
		err := runLoadBench(*loadTo, loadConfig{
			Duration: *loadDur, Conc: *loadCC, Items: *loadIt,
			Points: *loadPts, Seed: *seed,
		})
		if err != nil {
			fail(err)
		}
		return
	}
	if *list {
		fmt.Println("available experiments:")
		for _, e := range eval.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Paper)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "rlts-bench: provide -exp ID or -list")
		os.Exit(2)
	}
	s, err := eval.ScaleByName(*scale)
	if err != nil {
		fail(err)
	}
	var logSink *os.File
	if *verbose {
		logSink = os.Stderr
	}
	ctx := eval.NewContext(s, *seed, logSink)
	ctx.Workers = *workers

	exps := eval.Experiments()
	if *exp != "all" {
		e, err := eval.ExperimentByID(*exp)
		if err != nil {
			fail(err)
		}
		exps = []eval.Experiment{e}
	}
	for _, e := range exps {
		logger.Debug("experiment starting", "id", e.ID, "paper", e.Paper, "scale", s.Name)
		start := time.Now()
		tb, err := e.Run(ctx)
		if err != nil {
			fail(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Println(tb.String())
		fmt.Printf("(%s reproduces %s; ran in %v at scale %q)\n\n",
			e.ID, e.Paper, time.Since(start).Round(time.Millisecond), s.Name)
		if *csvDir != "" {
			path, err := tb.SaveCSV(*csvDir)
			if err != nil {
				fail(err)
			}
			fmt.Printf("(series written to %s)\n\n", path)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rlts-bench: %v\n", err)
	os.Exit(1)
}
