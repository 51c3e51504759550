// Command perfbench is the repository's serving benchmark. Given a
// workload and a seed it generates the workload's requests and their
// expected responses in process, starts the commit's own rlts-server as a
// separate process, drives it from this single load-generator process
// over at most two connections, checks every response, and prints the
// end-to-end metrics. With --trace 1 it also replays the same inputs in
// process, timing calls into the server, traj, core, rl, errm,
// baseline/online and storage packages, and prints the per-layer metrics
// instead. Run it from the repository root through run.sh, which builds
// both binaries from source:
//
//	bash perfbench/run.sh --workload single_long --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// workloads names the workloads the command runs, the ones BENCHMARK.json
// lists. batch_geolife and stream_devices did not hold steady on the
// 2-core VM (see README.md); traced runs replay them in process only, as
// the homes of the batch and streaming layers.
var workloads = []string{"single_long", "dirty_bounded"}

// replayed names every workload a traced run may replay.
var replayed = append(append([]string(nil), workloads...), "batch_geolife", "stream_devices")

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	server   string
	out      string
}

func main() {
	o, err := parseFlags()
	var res *result
	if err == nil {
		res, err = runBenchmark(o)
	}
	var line []byte
	if err == nil {
		line, err = json.Marshal(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags() (options, error) {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "measurement window, seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced in-process replay and prints the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.server, "server", "", "rlts-server binary built from the root")
	flag.StringVar(&o.out, "out", ".bench_build", "directory the run may write to")
	flag.Parse()
	o.trace = trace == 1
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	switch {
	case !known:
		return o, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloads)
	case o.seconds < 1:
		return o, errors.New("--seconds must be at least 1")
	case o.server == "":
		return o, errors.New("--server is required")
	}
	return o, nil
}

// runBenchmark makes one run, printing the run record, and returns the
// result main prints as the last line.
func runBenchmark(o options) (*result, error) {
	dir := filepath.Join(o.out, "run", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ps, err := loadPolicies()
	if err != nil {
		return nil, err
	}
	e := env{server: o.server, dir: dir, procs: runtime.GOMAXPROCS(0)}

	genStart := time.Now()
	rp, err := build(o.workload, o.seed, ps)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", o.workload, err)
	}
	genTime := time.Since(genStart)

	res, err := measureClosed(e, rp.closed, o.seconds)
	if err != nil {
		return nil, err
	}

	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v generated_in=%s\n",
		o.workload, o.seed, o.seconds, o.trace, genTime.Round(time.Millisecond))
	fmt.Printf("provenance %s\n", provenance(o.root, dir, e.procs))
	printRecord(res)

	metrics, err := res.endToEnd()
	if err != nil {
		return nil, err
	}
	if o.trace {
		if metrics, err = traceRun(o, ps, dir, rp, res); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	printMetrics(metrics)
	return &result{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: metrics}, nil
}

// build generates a workload's inputs and expected outputs from a seed.
func build(workload string, seed int64, ps *policySet) (replay, error) {
	rp := replay{name: workload}
	var err error
	switch workload {
	case "batch_geolife":
		rp.closed, err = buildBatch(seed)
	case "single_long":
		rp.closed, err = buildSingle(seed, ps)
	case "dirty_bounded":
		rp.closed, err = buildDirty(seed)
	default:
		rp.stream, err = buildStream(seed)
	}
	return rp, err
}

// printRecord prints the run record: operations, percentile sample
// counts, generator health, setup starts and the known-gap counters.
func printRecord(r *runResult) {
	cpuUtil, lagP90 := r.loadgen()
	fmt.Printf("ops attempted=%d failed=%d window=%d cold_starts=%d window_s=%.3f\n",
		r.attempted, r.failed, len(r.samples), len(r.setup), r.wall.Seconds())
	bs := r.bodies()
	n, lo, hi := len(bs), 0, 0
	for _, b := range bs {
		if lo == 0 || b.repeats < lo {
			lo = b.repeats
		}
		if b.repeats > hi {
			hi = b.repeats
		}
	}
	fmt.Printf("latency samples=%d distinct bodies, each the fastest of its %d-%d repeats; beyond_p50=%d beyond_p90=%d\n",
		n, lo, hi, n-int(math.Ceil(0.5*float64(n))), n-int(math.Ceil(0.9*float64(n))))
	fmt.Printf("loadgen cpu_util=%.4f lag_p90_ms=%.4f host_steal_share=%.4f\n", cpuUtil, lagP90, r.steal)
	setup := make([]string, len(r.setup))
	for i, d := range r.setup {
		setup[i] = strconv.FormatFloat(d.Seconds()*1000, 'f', 2, 64)
	}
	fmt.Printf("setup_ms starts=%v\n", setup)
	fmt.Printf("server_counters spills=%g rehydrations=%g spill_errors=%g batch_shards=%g\n",
		r.counter("rlts_stream_spills_total", 1), r.counter("rlts_stream_rehydrations_total", 1),
		r.counter("rlts_stream_spill_errors_total", 1), r.counter("rlts_batch_shards_total", 1))
	fmt.Printf("check repair_report_missing=%d (known gap: bounded responses drop the repair report)\n", r.repairMissing)
	for _, f := range r.fails {
		fmt.Printf("failure %s\n", f)
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-32s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
