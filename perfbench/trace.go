package main

// The traced run. It replays each workload's seeded operations in this
// process and records a span around every call into a layer: the server
// handler, JSON decode and encode in the route's wire shape, traj
// validation and repair, core simplification, batching and streaming,
// the rl policy, the errm oracle, the baseline/online one-pass
// simplifiers, the streamer state codec and storage writes. Spans stay
// in memory and are written out at the end; the per-layer metrics are
// computed from them. The end-to-end metrics never come from this run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// streamReplayOps is how many operations of stream_devices the replay
// times, after replaying the creates and the warm-up; replayBodies is how
// many of a closed-loop workload's bodies the replays serve, so a traced
// single_long run ends well within its time.
const (
	streamReplayOps = 2000
	replayBodies    = 24
)

// span is one timed call. N counts the work it was given (input points,
// or decisions for rl.act) and Out what it produced (kept points for
// encode, emitted points for repair, bytes for the state encoder).
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	N        int    `json:"n,omitempty"`
	Out      int    `json:"out,omitempty"`
	Allocs   uint64 `json:"allocs,omitempty"`
}

func (s *span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory. begin and end may be called from the
// concurrent batch shards, so they lock.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
	// bare keeps only the per-operation "stages" spans of a mirror: the
	// stage calls run without spans or ReadMemStats around them, so a bare
	// replay times the same work with the tracing taken out.
	bare bool
}

func (t *tracer) begin(name string, op, parent int) int {
	if t.bare && name != "stages" {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Op: op, ID: len(t.spans) + 1, Parent: parent,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(id, n, out int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.N, s.Out = now, n, out
}

// allocs runs fn inside a span and records the mallocs it made. The
// runtime.ReadMemStats calls sit outside the span's interval.
func (t *tracer) allocs(name string, op, parent int, fn func() (n, out int)) {
	if t.bare {
		fn()
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := t.begin(name, op, parent)
	n, out := fn()
	t.end(id, n, out)
	runtime.ReadMemStats(&m1)
	t.mu.Lock()
	t.spans[id-1].Allocs = m1.Mallocs - m0.Mallocs
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, op, parent int, fn func() (n, out int)) {
	if t.bare {
		fn()
		return
	}
	id := t.begin(name, op, parent)
	n, out := fn()
	t.end(id, n, out)
}

// layerHome names the workload whose replay measures a stage span when
// the traced workload's own route does not run it.
var layerHome = map[string]string{
	"traj.validate":        "single_long",
	"traj.repair":          "dirty_bounded",
	"core.simplify":        "single_long",
	"rl.act":               "single_long",
	"core.batch_run":       "batch_geolife",
	"core.stream_push":     "stream_devices",
	"core.stream_snapshot": "stream_devices",
	"core.state_encode":    "stream_devices",
	"core.state_decode":    "stream_devices",
	"storage.write_atomic": "stream_devices",
	"online.bounded":       "dirty_bounded",
	"errm.rescore":         "dirty_bounded",
}

// counterHome names the workload whose in-process ServeHTTP replay
// measures a server counter: the listed workloads never batch or spill.
var counterHome = map[string]string{
	"rlts_batch_shards_total":        "batch_geolife",
	"rlts_stream_spills_total":       "stream_devices",
	"rlts_stream_rehydrations_total": "stream_devices",
	"rlts_stream_spill_errors_total": "stream_devices",
}

// spanStats sums the spans of one name.
type spanStats struct {
	count      int
	dur        float64 // ns
	n, out     int
	allocs     uint64
	measuredOn string
}

func stats(spans []span, name string) spanStats {
	var s spanStats
	for i := range spans {
		if spans[i].Name == name {
			s.count++
			s.dur += spans[i].dur()
			s.n += spans[i].N
			s.out += spans[i].Out
			s.allocs += spans[i].Allocs
			s.measuredOn = spans[i].Workload
		}
	}
	return s
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceRun runs the in-process replays for the traced workload and for
// the homes of the layers and counters its route does not run, writes
// every span to .../spans/<workload>-seed<seed>.jsonl, prints the
// reconciliation of the traced and untraced runs, and returns the
// per-layer metrics.
func traceRun(o options, ps *policySet, dir string, own replay, res *runResult) (map[string]metric, error) {
	epoch := time.Now()
	own = own.head(replayBodies)
	spansOn := map[string][]span{}
	countersOn := map[string]map[string]float64{}

	// The traced workload: three untraced and traced ServeHTTP passes,
	// each body's stage mirror replayed right after it is served: bare,
	// traced, then bare again, so the stage work, the handler and the
	// tracing overhead are all measured on the same bodies at the same
	// moments.
	untraced := &tracer{epoch: epoch, workload: o.workload}
	traced := &tracer{epoch: epoch, workload: o.workload}
	passes := []*tracer{{bare: true}, {}, {bare: true}}
	warm := &tracer{epoch: epoch, bare: true}
	for _, t := range passes {
		t.epoch, t.workload = epoch, o.workload
	}
	stagesOf, err := closedMirror(ps, own)
	if err != nil {
		return nil, err
	}
	countersOn[o.workload], err = handlerPasses(untraced, traced, ps, own, dir, len(passes), func(rep, op int) error {
		if rep < 0 {
			return stagesOf(warm, op)
		}
		return stagesOf(passes[rep], op)
	})
	if err != nil {
		return nil, err
	}
	mt := passes[1]
	if own.name == "single_long" {
		if err := decompose(mt, ps, own.closed); err != nil {
			return nil, err
		}
	}
	bare0, tracedRoots, bare1 := roots(passes[0].spans), roots(mt.spans), roots(passes[2].spans)
	all := appendSpans(appendSpans(appendSpans(nil, untraced.spans), traced.spans), mt.spans)
	spansOn[o.workload] = mt.spans

	// The homes of layers and counters this route does not run.
	for _, w := range replayed {
		if w == o.workload {
			continue
		}
		needed, counted := false, false
		for stage, home := range layerHome {
			needed = needed || (home == w && stats(mt.spans, stage).count == 0)
		}
		for _, home := range counterHome {
			counted = counted || home == w
		}
		if !needed && !counted {
			continue
		}
		rp, err := build(w, o.seed, ps)
		if err != nil {
			return nil, err
		}
		rp = rp.head(replayBodies)
		if needed {
			ht := &tracer{epoch: epoch, workload: w}
			if err := mirror(ht, ps, rp, filepath.Join(dir, "mirror-"+w)); err != nil {
				return nil, fmt.Errorf("%s replay: %w", w, err)
			}
			spansOn[w] = ht.spans
			all = appendSpans(all, ht.spans)
		}
		if counted {
			if countersOn[w], err = handlerPasses(&tracer{epoch: epoch}, &tracer{epoch: epoch}, ps, rp, filepath.Join(dir, "passes-"+w), 1, nil); err != nil {
				return nil, fmt.Errorf("%s passes: %w", w, err)
			}
		}
	}
	layer := func(name string) spanStats {
		if s := stats(mt.spans, name); s.count > 0 {
			return s
		}
		return stats(spansOn[layerHome[name]], name)
	}
	counter := func(name string) float64 { return countersOn[counterHome[name]][name] }

	// Per-body reconciliation of the traced workload: each replayed
	// body's untraced round trip, its untraced ServeHTTP and its stage
	// work, each the fastest of as many repeats as there are passes, so
	// all three carry the same bias of a minimum; and the sum of its
	// stage spans.
	stageSum := map[int]float64{}
	for i := range mt.spans {
		s := &mt.spans[i]
		if s.Parent != 0 && mt.spans[s.Parent-1].Name == "stages" {
			stageSum[s.Op] += s.dur()
		}
	}
	handleOf := map[int]float64{}
	for _, s := range untraced.spans {
		if d, ok := handleOf[s.Op]; !ok || s.dur() < d {
			handleOf[s.Op] = s.dur()
		}
	}
	roundTrip, repeats := map[int]float64{}, map[int]int{}
	for _, smp := range res.samples {
		if repeats[smp.body] < len(passes) {
			if d, ok := roundTrip[smp.body]; !ok || float64(smp.lat) < d {
				roundTrip[smp.body] = float64(smp.lat)
			}
			repeats[smp.body]++
		}
	}
	var rc reconciliation
	var handle, self, transport, ratio []float64
	for op, h := range handleOf {
		rt := roundTrip[op]
		work := min(bare0[op], tracedRoots[op], bare1[op])
		handle = append(handle, h)
		self = append(self, h-work)
		transport = append(transport, rt-h)
		ratio = append(ratio, div(stageSum[op], rt))
		rc.stages += stageSum[op]
		rc.work += work
		rc.handle += h
		rc.roundTrip += rt
		rc.points += float64(own.closed.points[op])
	}
	var allocs uint64
	for _, s := range traced.spans {
		allocs += s.Allocs
	}
	cpuUtil, lagP90 := res.loadgen()

	if err := writeSpans(o, all); err != nil {
		return nil, err
	}
	var sums []float64
	for op := range handleOf {
		sums = append(sums, stageSum[op])
	}
	overhead := overheadShare(bare0, tracedRoots, bare1)
	rc.print(o.workload, mt.spans, medianOf(sums), res.latency(0.5)*1e6, medianOf(ratio), overhead)

	decode, encode := layer("server.decode"), layer("server.encode")
	simplify, act := layer("core.simplify"), layer("rl.act")
	actNs := div(act.dur, float64(act.out))
	push, enc, dec := layer("core.stream_push"), layer("core.state_encode"), layer("core.state_decode")
	repair := layer("traj.repair")
	us := func(s spanStats) float64 { return div(s.dur, float64(s.count)) / 1e3 }
	perPt := func(s spanStats) float64 { return div(s.dur, float64(s.n)) }
	m := map[string]metric{
		"http.self_us_per_op":            {medianOf(transport) / 1e3, "us/op"},
		"server.handle_us_per_op":        {medianOf(handle) / 1e3, "us/op"},
		"server.self_us_per_op":          {medianOf(self) / 1e3, "us/op"},
		"server.allocs_per_op":           {div(float64(allocs), float64(len(traced.spans))), "allocs/op"},
		"server.decode_ns_per_pt":        {perPt(decode), "ns/pt"},
		"server.decode_allocs_per_pt":    {div(float64(decode.allocs), float64(decode.n)), "allocs/pt"},
		"server.encode_ns_per_kept_pt":   {div(encode.dur, float64(encode.out)), "ns/pt"},
		"server.batch_shards_per_req":    {counter("rlts_batch_shards_total"), "shards/req"},
		"server.spills_per_op":           {counter("rlts_stream_spills_total"), "1/op"},
		"server.rehydrations_per_op":     {counter("rlts_stream_rehydrations_total"), "1/op"},
		"server.spill_errors_per_op":     {counter("rlts_stream_spill_errors_total"), "1/op"},
		"traj.validate_ns_per_pt":        {perPt(layer("traj.validate")), "ns/pt"},
		"traj.repair_ns_per_pt":          {perPt(repair), "ns/pt"},
		"traj.repair_emitted_share":      {div(float64(repair.out), float64(repair.n)), "ratio"},
		"core.simplify_ns_per_pt":        {perPt(simplify), "ns/pt"},
		"core.simplify_allocs_per_pt":    {div(float64(simplify.allocs), float64(simplify.n)), "allocs/pt"},
		"core.decisions_per_pt":          {div(float64(act.out), float64(act.n)), "1/pt"},
		"rl.act_ns_per_decision":         {actNs, "ns"},
		"core.env_ns_per_decision":       {div(simplify.dur, float64(act.out)) - actNs, "ns"},
		"core.batch_run_ns_per_pt":       {perPt(layer("core.batch_run")), "ns/pt"},
		"core.stream_push_ns_per_pt":     {perPt(push), "ns/pt"},
		"core.stream_push_allocs_per_pt": {div(float64(push.allocs), float64(push.n)), "allocs/pt"},
		"core.stream_snapshot_us":        {us(layer("core.stream_snapshot")), "us"},
		"core.state_encode_us":           {us(enc), "us"},
		"core.state_decode_us":           {us(dec), "us"},
		"core.state_bytes":               {div(float64(enc.out), float64(enc.count)), "bytes"},
		"storage.write_atomic_us":        {us(layer("storage.write_atomic")), "us"},
		"online.bounded_ns_per_pt":       {perPt(layer("online.bounded")), "ns/pt"},
		"errm.rescore_ns_per_pt":         {perPt(layer("errm.rescore")), "ns/pt"},
		"loadgen.cpu_util":               {cpuUtil, "ratio"},
		"loadgen.lag_p90_ms":             {lagP90, "ms"},
		"trace.stage_sum_over_p50":       {medianOf(ratio), "ratio"},
		"trace.overhead_share":           {overhead, "ratio"},
		"check.repair_report_missing":    {float64(res.repairMissing), "count"},
	}
	for _, name := range []string{"traj.validate", "traj.repair", "core.simplify", "rl.act", "core.batch_run",
		"core.stream_push", "core.state_encode", "storage.write_atomic", "online.bounded", "errm.rescore"} {
		if s := layer(name); s.measuredOn != o.workload {
			fmt.Printf("layer %s measured on %s (not run by %s)\n", name, s.measuredOn, o.workload)
		}
	}
	for _, name := range []string{"rlts_batch_shards_total", "rlts_stream_spills_total"} {
		if home := counterHome[name]; home != o.workload {
			fmt.Printf("counter %s measured on the in-process replay of %s\n", name, home)
		}
	}
	return m, nil
}

// roots returns the duration of each operation's "stages" span.
func roots(spans []span) map[int]float64 {
	out := map[int]float64{}
	for i := range spans {
		if spans[i].Name == "stages" {
			out[spans[i].Op] = spans[i].dur()
		}
	}
	return out
}

// overheadShare compares the traced stage mirror with bare replays made
// just before and after it: the median over operations of the traced
// time over the mean bare time, minus one.
func overheadShare(before, traced, after map[int]float64) float64 {
	var ratios []float64
	for op, d := range traced {
		if b, a := before[op], after[op]; b > 0 && a > 0 {
			ratios = append(ratios, d/((b+a)/2))
		}
	}
	return medianOf(ratios) - 1
}

// appendSpans appends one tracer's spans to all, moving their ids and
// parents past the ids already in all, so the written file has one id
// space.
func appendSpans(all, spans []span) []span {
	off := len(all)
	for _, s := range spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		all = append(all, s)
	}
	return all
}

// writeSpans writes every span as one JSON line.
func writeSpans(o options, spans []span) error {
	dir := filepath.Join(o.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("spans %d written to %s\n", len(spans), path)
	return nil
}

// reconciliation sums, over the replayed bodies, the stage spans, the
// stage work, the untraced ServeHTTP, the untraced round trip and the
// input points, times in ns.
type reconciliation struct {
	stages, work, handle, roundTrip, points float64
}

// print splits the untraced round trip into stage times, the server's own
// remainder (ServeHTTP minus stage work) and transport (round trip minus
// ServeHTTP), per operation and per input point.
func (rc reconciliation) print(workload string, spans []span, stageSum, p50, ratio, overhead float64) {
	byStage := map[string]float64{}
	ops := map[int]bool{}
	pts := 0
	for i := range spans {
		s := &spans[i]
		if s.Name == "stages" {
			ops[s.Op] = true
			pts += s.N
		}
		if s.Parent != 0 && spans[s.Parent-1].Name == "stages" {
			byStage[s.Name] += s.dur()
		}
	}
	names := make([]string, 0, len(byStage))
	for k := range byStage {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("stage %-22s %10.2f us/op %9.4f us/pt\n", k, byStage[k]/float64(len(ops))/1e3, byStage[k]/float64(pts)/1e3)
	}
	perPt := func(ns float64) float64 { return div(ns, rc.points) / 1e3 }
	fmt.Printf("reconcile %s bodies=%d stage_sum_p50_us=%.2f untraced_p50_us=%.2f stage_sum_over_p50=%.4f (median over bodies of stage sum / round trip) overhead_share=%.4f\n",
		workload, len(ops), stageSum/1e3, p50/1e3, ratio, overhead)
	fmt.Printf("reconcile per_pt_us: round_trip=%.4f stages=%.4f server_self=%.4f transport=%.4f unattributed=%.4f\n",
		perPt(rc.roundTrip), perPt(rc.stages), perPt(rc.handle-rc.work), perPt(rc.roundTrip-rc.handle), perPt(rc.roundTrip-rc.stages))
}
