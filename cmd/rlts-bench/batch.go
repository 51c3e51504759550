package main

// The -batch sweep: the inference baseline behind batch serving. It times
// the exact policy forward against the fused bounded one
// (nn.Network.ForwardBounded), sequential core.Simplify (the decision
// loop every route runs, on certified decisions) with the share of
// decisions that fell back to the exact forward, and a short
// sustained-load run, and writes the numbers as the BENCH_batch.json
// baseline.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/rl"
	"rlts/internal/traj"
)

type batchBaseline struct {
	Description string `json:"description"`
	Machine     struct {
		CPU        string `json:"cpu"`
		NumCPU     int    `json:"num_cpu"`
		GoMaxProcs int    `json:"gomaxprocs"`
		Note       string `json:"note"`
	} `json:"machine"`
	Forward struct {
		Spec              string  `json:"spec"`
		ExactNsPerState   float64 `json:"exact_ns_per_state"`
		BoundedNsPerState float64 `json:"bounded_ns_per_state"`
		Speedup           float64 `json:"speedup_bounded_vs_exact"`
	} `json:"forward"`
	Simplify struct {
		Dataset       string  `json:"dataset"`
		NsPerPoint    float64 `json:"ns_per_point"`
		Decisions     int     `json:"decisions"`
		FallbackShare float64 `json:"fallback_share"`
	} `json:"simplify"`
	SustainedLoad []loadSummary `json:"sustained_load,omitempty"`
}

// measure times fn (which must perform `units` units of work per call)
// over five windows of at least minTime each and returns the fastest
// window's ns per unit. On a shared host one window moves with the
// host's minute; the fastest of several repeats run to run.
func measure(units int, fn func()) float64 {
	const (
		minTime = 200 * time.Millisecond
		windows = 5
	)
	fn() // warm scratch buffers so allocation noise stays out of the timing
	best := math.Inf(1)
	for range windows {
		total := time.Duration(0)
		calls := 0
		for total < minTime {
			start := time.Now()
			fn()
			total += time.Since(start)
			calls++
		}
		best = min(best, float64(total.Nanoseconds())/float64(calls*units))
	}
	return best
}

func runBatchSweep(out string, seed int64) error {
	warnSingleProc()
	opts := core.DefaultOptions(errm.SED, core.Plus)
	hidden := rl.DefaultTrainConfig().Hidden
	r := rand.New(rand.NewSource(seed))
	p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), hidden, r)
	if err != nil {
		return err
	}

	var b batchBaseline
	b.Description = "Baseline for policy inference behind batch serving: the exact vs " +
		"the fused bounded vector forward, sequential core.Simplify on certified " +
		"decisions with its exact-fallback share, and a short sustained-load run. " +
		"Regenerate with scripts/bench_batch.sh."
	b.Machine.CPU = cpuModel()
	b.Machine.NumCPU = runtime.NumCPU()
	b.Machine.GoMaxProcs = runtime.GOMAXPROCS(0)
	b.Machine.Note = "Forward and simplify rows are single-thread. Each is the fastest of " +
		"five windows of at least 200 ms: one window moves with a shared host's minute, " +
		"while the fastest of five repeats from run to run. Batch serving runs each " +
		"trajectory through the same sequential decision loop as core.Simplify and " +
		"gets its throughput from sharding items over workers, each on its own policy " +
		"clone; sustained_load measures that end to end. The bounded forward replaces " +
		"math.Tanh with FastTanh and runs one matmul over weights with the batch-norm affine " +
		"folded in once per policy clone, and bounds each logit's distance from the " +
		"exact one; Act takes its decision when the bounds prove it and re-runs the " +
		"exact forward otherwise (DESIGN.md §13)."

	// Forward: one spec, the serving-default policy shape; same network
	// and states through each forward.
	const nStates = 64
	in := opts.StateSize()
	b.Forward.Spec = fmt.Sprintf("in=%d hidden=[%d] out=%d batchnorm+tanh", in, hidden, opts.NumActions())
	states := make([]float64, nStates*in)
	for i := range states {
		states[i] = r.NormFloat64()
	}
	exactNs := measure(nStates, func() {
		for s := 0; s < nStates; s++ {
			p.Net.Forward(states[s*in:(s+1)*in], false)
		}
	})
	fastNs := measure(nStates, func() {
		for s := 0; s < nStates; s++ {
			p.Net.ForwardBounded(states[s*in : (s+1)*in])
		}
	})
	b.Forward.ExactNsPerState = round2(exactNs)
	b.Forward.BoundedNsPerState = round2(fastNs)
	b.Forward.Speedup = round2(exactNs / fastNs)

	// Simplify: a fixed evaluation set run to completion, greedy.
	const (
		nTraj = 64
		nLen  = 200
	)
	data := gen.New(gen.Geolife(), seed).Dataset(nTraj, nLen)
	b.Simplify.Dataset = fmt.Sprintf("geolife %dx%d points, w=0.1, greedy inference", nTraj, nLen)
	type item struct {
		t traj.Trajectory
		w int
	}
	items := make([]item, len(data))
	points := 0
	for i, t := range data {
		w := max(len(t)/10, 2)
		items[i] = item{t, w}
		points += len(t)
		b.Simplify.Decisions += len(t) - w // RLTS+ decides once per point past the first W
	}
	p.TakeFallbacks()
	runs := 0
	b.Simplify.NsPerPoint = round2(measure(points, func() {
		runs++
		for _, it := range items {
			if _, err := core.Simplify(p, it.t, it.w, opts, false, nil); err != nil {
				panic(err)
			}
		}
	}))
	b.Simplify.FallbackShare = float64(p.TakeFallbacks()) / float64(runs*b.Simplify.Decisions)

	// A short sustained-load run, so the serving numbers live next to the
	// numbers they are built from. The standalone `rlts-bench -load` runs
	// longer and with custom shapes.
	sum, err := runLoad(loadConfig{Duration: 3 * time.Second, Seed: seed})
	if err != nil {
		return err
	}
	b.SustainedLoad = append(b.SustainedLoad, *sum)

	enc, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" || out == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		return err
	}
	fmt.Printf("batch sweep written to %s (forward exact %.0f / bounded %.0f ns/state, simplify %.0f ns/point, %.2g fallback share)\n",
		out, b.Forward.ExactNsPerState, b.Forward.BoundedNsPerState, b.Simplify.NsPerPoint, b.Simplify.FallbackShare)
	return nil
}

// warnSingleProc shouts when the process is pinned to one scheduler
// thread: the sustained-load number, which shards items over workers,
// would silently be a single-core number.
func warnSingleProc() {
	if runtime.GOMAXPROCS(0) > 1 {
		return
	}
	fmt.Fprintln(os.Stderr, strings.Repeat("#", 72))
	fmt.Fprintf(os.Stderr, "# WARNING: GOMAXPROCS=1 (num_cpu=%d).\n", runtime.NumCPU())
	fmt.Fprintln(os.Stderr, "# Every throughput number below is SINGLE-CORE. Do not publish these")
	fmt.Fprintln(os.Stderr, "# as multi-core results. The machine block records num_cpu and")
	fmt.Fprintln(os.Stderr, "# gomaxprocs as measured under this setting.")
	fmt.Fprintln(os.Stderr, strings.Repeat("#", 72))
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

// cpuModel reads the CPU model name for the machine provenance block;
// best-effort, "unknown" when /proc/cpuinfo is unavailable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
