package main

// Self-tests of the benchmark. TestSmoke builds rlts-server from the
// repository root and runs every workload, so the suite takes a few
// minutes:
//
//	cd perfbench && go test -timeout 30m .

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp benchSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSmoke runs every workload for one second, untraced and traced, and
// requires every operation to pass its check and the metrics to carry
// exactly BENCHMARK.json's names and units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs rlts-server")
	}
	sp := loadSpec(t)
	for _, w := range sp.Workloads {
		known := false
		for _, name := range workloads {
			known = known || name == w.Name
		}
		if !known {
			t.Fatalf("BENCHMARK.json lists workload %q, which the benchmark does not run", w.Name)
		}
	}
	bin := filepath.Join(t.TempDir(), "rlts-server")
	if out, err := exec.Command("go", "build", "-o", bin, "rlts/cmd/rlts-server").CombinedOutput(); err != nil {
		t.Fatalf("building rlts-server: %v\n%s", err, out)
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w, seed: 5, seconds: 1, trace: trace, root: root, server: bin, out: t.TempDir()}
			res, err := runBenchmark(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w, trace, m.Name, got.Value)
				case !trace && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w, m.Name)
				}
			}
		}
	}
}

// requestBodies lists everything a workload sends, in order.
func requestBodies(t *testing.T, w string, seed int64, ps *policySet) [][]byte {
	t.Helper()
	rp, err := build(w, seed, ps)
	if err != nil {
		t.Fatal(err)
	}
	if rp.closed != nil {
		return rp.closed.bodies
	}
	out := [][]byte{rp.stream.create}
	for i := range rp.stream.ops {
		out = append(out, rp.stream.ops[i].body)
	}
	return out
}

// TestSeedRegeneratesBodies: one seed regenerates byte-identical request
// bodies, the replayed stream_devices ones too; another seed changes them.
func TestSeedRegeneratesBodies(t *testing.T) {
	ps, err := loadPolicies()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range replayed {
		a, b, c := requestBodies(t, w, 9, ps), requestBodies(t, w, 9, ps), requestBodies(t, w, 10, ps)
		if len(a) != len(b) {
			t.Fatalf("%s: seed 9 gave %d and %d bodies", w, len(a), len(b))
		}
		same := len(a) == len(c)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: body %d differs between two generations from seed 9", w, i)
			}
			same = same && bytes.Equal(a[i], c[i])
		}
		if same {
			t.Errorf("%s: seeds 9 and 10 generate the same bodies", w)
		}
	}
}

// TestCheckerFlagsCorruptedReference serves a workload's first
// operations in process, requires the real answers to pass the checker,
// then moves one expected value by a single unit in the last place and
// requires the same answers to fail.
func TestCheckerFlagsCorruptedReference(t *testing.T) {
	ps, err := loadPolicies()
	if err != nil {
		t.Fatal(err)
	}
	plain := func(call func()) { call() }
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	for _, w := range workloads {
		rp, err := build(w, 3, ps)
		if err != nil {
			t.Fatal(err)
		}
		p := rp.closed
		s, err := newInproc(ps, false, "")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := s.serve(http.MethodPost, p.path, p.bodies[0], plain)
		s.sv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.check(0, resp); err != nil {
			t.Fatalf("%s: the real answer fails the check: %v", w, err)
		}
		ref := &p.ref[0][len(p.ref[0])-1]
		ref.err = up(ref.err)
		if _, _, err := p.check(0, resp); err == nil {
			t.Errorf("%s: an error reference one ulp off passed the check", w)
		}
		ref.err = math.Nextafter(ref.err, math.Inf(-1))
		ref.kept[1]++
		if _, _, err := p.check(0, resp); err == nil {
			t.Errorf("%s: a shifted kept index passed the check", w)
		}
	}
}

// TestLatencyFromFastestRepeats checks the end-to-end estimators on a
// made-up window: each body's fastest repeat sets its latency, a body
// never sent does not enter, a body with a failed repeat misses every
// latency limit, and a window of fewer than minSamples distinct bodies
// fails the run.
func TestLatencyFromFastestRepeats(t *testing.T) {
	// window sends bodies from..to-1 three times each; body b answers in
	// b+1 ms at best and 7 ms slower on its other repeats.
	window := func(from, to int) *runResult {
		r := &runResult{q: quality{errSum: 1, errN: 1, keptSum: 1, keptN: 1}}
		for rep := 0; rep < 3; rep++ {
			for b := from; b < to; b++ {
				lat := time.Duration(b+1) * time.Millisecond
				if rep != 1 {
					lat += 7 * time.Millisecond
				}
				r.samples = append(r.samples, sample{lat: lat, ok: true, body: b, points: 1000})
			}
		}
		return r
	}
	fail := func(r *runResult, bodies int) {
		for i := range r.samples {
			if r.samples[i].body < bodies {
				r.samples[i].ok = false
			}
		}
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9*want }

	r := window(0, 100)
	if p50, p90 := r.latency(0.5), r.latency(0.9); p50 != 50 || p90 != 90 {
		t.Errorf("p50 %v p90 %v, want 50 and 90", p50, p90)
	}
	if got, want := r.throughput(), 100*1000/5.05; !near(got, want) {
		t.Errorf("throughput %v, want %v", got, want)
	}
	if _, err := r.endToEnd(); err != nil {
		t.Errorf("100 bodies: %v", err)
	}

	// Body 0 is never sent: it neither enters as a zero latency nor
	// counts towards minSamples.
	r = window(1, 101)
	if p50 := r.latency(0.5); p50 != 51 {
		t.Errorf("p50 %v with body 0 unsent, want 51", p50)
	}
	if _, err := window(1, 100).endToEnd(); err == nil {
		t.Error("a window of 99 distinct bodies passed")
	}

	// A failed repeat makes its body miss every limit, and its points no
	// longer count; its time still does.
	r = window(0, 100)
	fail(r, 1)
	if p50, p90 := r.latency(0.5), r.latency(0.9); p50 != 51 || p90 != 91 {
		t.Errorf("one failed body: p50 %v p90 %v, want 51 and 91", p50, p90)
	}
	if got, want := r.throughput(), 99*1000/5.05; !near(got, want) {
		t.Errorf("one failed body: throughput %v, want %v", got, want)
	}
	fail(r, 11)
	if p90 := r.latency(0.9); p90 != math.MaxFloat64 {
		t.Errorf("eleven failed bodies: p90 %v, want the largest float", p90)
	}
}
