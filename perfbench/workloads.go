package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"rlts/internal/baseline/batch"
	"rlts/internal/baseline/online"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/traj"
	"rlts/pretrained"
)

// Workload sizes. They are constants so every commit is measured on the
// same traffic; only --seed changes the inputs.
const (
	batchBodies   = 6   // distinct batch requests replayed
	batchItems    = 128 // trajectories per batch request: 2 shards at the default width of 64
	batchMinLen   = 100
	batchMaxLen   = 400
	singleBodies  = 100 // distinct long trajectories per run: minSamples
	singleMinLen  = 5000
	singleMaxLen  = 20000
	dirtyBodies   = 128 // distinct dirty trajectories per run, half SED and half PED
	dirtyMinLen   = 2000
	dirtyMaxLen   = 5000
	simplifyRatio = 0.1
	// Bounds per measure, in metres, that keep about a fifth of a
	// repaired Geolife trajectory.
	dirtyBoundSED = 8.0
	dirtyBoundPED = 18.0
)

// dirtyRepair is the README's repair example: a 16-fix reordering window
// and the speed gate at 60 m/s.
var dirtyRepair = repairParams{Window: 16, MaxSpeed: 60}

func (p repairParams) config() traj.RepairConfig {
	return traj.RepairConfig{Window: p.Window, MaxSpeed: p.MaxSpeed}
}

// dirtyFamily composes every generator defect family except "garbage":
// JSON cannot carry the NaN and Inf values that family injects, so no
// HTTP client can send them.
func dirtyFamily() gen.DirtyConfig {
	var fams []gen.DirtyConfig
	for _, f := range gen.DirtyFamilies() {
		if f.Name != "garbage" && f.Name != "kitchen-sink" {
			fams = append(fams, f)
		}
	}
	return gen.Compose("dirty-no-garbage", fams...)
}

// quality accumulates the deterministic output metrics of checked
// responses, each a mean over simplified trajectories: served error over
// the Bottom-Up error at the same kept count, and kept over input points.
type quality struct {
	errSum  float64
	errN    int
	keptSum float64
	keptN   int
}

func (q *quality) add(o quality) {
	q.errSum += o.errSum
	q.errN += o.errN
	q.keptSum += o.keptSum
	q.keptN += o.keptN
}

// observe adds one simplified trajectory: served error e with kept
// points of t under measure m.
func (q *quality) observe(m errm.Measure, t traj.Trajectory, kept int, e float64) error {
	bu, err := batch.BottomUp(t, kept, m)
	if err != nil {
		return fmt.Errorf("bottom-up reference: %w", err)
	}
	if ref := errm.Error(m, t, bu); ref > 0 {
		q.errSum += e / ref
		q.errN++
	}
	q.keptSum += float64(kept) / float64(len(t))
	q.keptN++
	return nil
}

// closedPlan is a closed-loop workload: one connection cycles through
// distinct request bodies, and each body's first response is checked
// against a reference computed in process before timing.
type closedPlan struct {
	path   string
	bodies [][]byte
	points []int // input points per body
	// check parses a response to body i and compares it with the
	// reference; it reports the body's quality and whether the response
	// lacked the repair report the request asked for.
	check func(i int, resp []byte) (q quality, repairMissing bool, err error)
	// ref holds the in-process reference per body and trajectory.
	ref [][]simplified

	// Decoded inputs, kept for the traced replay.
	trajs   [][]traj.Trajectory // per body: the trajectories it carries
	measure []errm.Measure      // per body
}

// policies loads the embedded pretrained policies the server registers.
type policySet struct {
	plusSED   *core.Trained // RLTS+/SED: single_long and batch_geolife
	onlineSED *core.Trained // RLTS/SED: stream_devices sessions
	all       []*core.Trained
}

func loadPolicies() (*policySet, error) {
	ps := &policySet{}
	for _, v := range []core.Variant{core.Online, core.Plus} {
		for _, m := range errm.Measures {
			p, err := pretrained.Load(m, v)
			if err != nil {
				return nil, err
			}
			tr := p.Internal()
			ps.all = append(ps.all, tr)
			if m == errm.SED && v == core.Plus {
				ps.plusSED = tr
			}
			if m == errm.SED && v == core.Online {
				ps.onlineSED = tr
			}
		}
	}
	return ps, nil
}

// stratified returns n lengths spread over [lo, hi]: one drawn uniformly
// inside each of n equal strata, in seeded order, with the median stratum
// first. Every seed then serves the same length mix and starts with a
// median-sized operation, so neither throughput nor setup_s moves with a
// seed's luck in drawing long or short inputs.
func stratified(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	span := float64(hi-lo) / float64(n)
	for i := range out {
		out[i] = lo + int((float64(i)+r.Float64())*span)
	}
	mid := out[n/2]
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i, v := range out {
		if v == mid {
			out[0], out[i] = out[i], out[0]
			break
		}
	}
	return out
}

// budget mirrors the server's ratio-to-W rule.
func budget(ratio float64, n int) int {
	b := int(ratio * float64(n))
	if b < 2 {
		b = 2
	}
	return b
}

func toPoints(t traj.Trajectory, kept []int) [][3]float64 {
	out := make([][3]float64, len(kept))
	for i, ix := range kept {
		p := t[ix]
		out[i] = [3]float64{p.X, p.Y, p.T}
	}
	return out
}

func equalPoints(a, b [][3]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func marshal(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// simplified is one in-process reference: the kept indices and the
// oracle error the server must report for them.
type simplified struct {
	kept []int
	err  float64
}

func (s simplified) checkItem(t traj.Trajectory, kept, of int, e float64, pts [][3]float64) error {
	switch {
	case kept != len(s.kept) || of != len(t):
		return fmt.Errorf("kept %d of %d, want %d of %d", kept, of, len(s.kept), len(t))
	case e != s.err:
		return fmt.Errorf("error %v, want %v", e, s.err)
	case !equalPoints(pts, toPoints(t, s.kept)):
		return fmt.Errorf("kept points differ from the reference")
	}
	return nil
}

// buildSingle: POST /v1/simplify, RLTS+/SED at ratio 0.1, one Truck
// trajectory of 5k-20k points per request.
func buildSingle(seed int64, ps *policySet) (*closedPlan, error) {
	r := rand.New(rand.NewSource(seed))
	lens := stratified(r, singleBodies, singleMinLen, singleMaxLen)
	p := &closedPlan{path: "/v1/simplify"}
	for _, n := range lens {
		t := gen.New(gen.Truck(), r.Int63()).Trajectory(n)
		body, err := marshal(&simplifyRequest{Algorithm: "rlts+", Measure: "SED", Ratio: simplifyRatio, Points: gen.Raw(t)})
		if err != nil {
			return nil, err
		}
		kept, err := ps.plusSED.SimplifyGreedy(t, budget(simplifyRatio, n))
		if err != nil {
			return nil, err
		}
		p.ref = append(p.ref, []simplified{{kept: kept, err: errm.Error(errm.SED, t, kept)}})
		p.bodies = append(p.bodies, body)
		p.points = append(p.points, n)
		p.trajs = append(p.trajs, []traj.Trajectory{t})
		p.measure = append(p.measure, errm.SED)
	}
	name := ps.plusSED.Opts.Name()
	p.check = func(i int, resp []byte) (quality, bool, error) {
		var got simplifyResponse
		if err := json.Unmarshal(resp, &got); err != nil {
			return quality{}, false, err
		}
		if got.Algorithm != name || got.Mode != "exact" {
			return quality{}, false, fmt.Errorf("algorithm %q mode %q, want %q exact", got.Algorithm, got.Mode, name)
		}
		t := p.trajs[i][0]
		if err := p.ref[i][0].checkItem(t, got.Kept, got.Of, got.Error, got.Points); err != nil {
			return quality{}, false, err
		}
		var q quality
		err := q.observe(errm.SED, t, got.Kept, got.Error)
		return q, false, err
	}
	return p, nil
}

// buildBatch: POST /v1/simplify/batch, RLTS+/SED at ratio 0.1, 128
// Geolife trajectories of 100-400 points per request. batch_geolife is
// only replayed in process, as the home of core.BatchEngine and the
// shard counter, so it has no expected answers.
func buildBatch(seed int64) (*closedPlan, error) {
	r := rand.New(rand.NewSource(seed))
	p := &closedPlan{path: "/v1/simplify/batch"}
	for b := 0; b < batchBodies; b++ {
		lens := stratified(r, batchItems, batchMinLen, batchMaxLen)
		req := batchRequest{Algorithm: "rlts+", Measure: "SED", Ratio: simplifyRatio}
		var ts []traj.Trajectory
		n := 0
		for _, l := range lens {
			t := gen.New(gen.Geolife(), r.Int63()).Trajectory(l)
			req.Items = append(req.Items, batchItem{Points: gen.Raw(t)})
			ts = append(ts, t)
			n += l
		}
		body, err := marshal(&req)
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, body)
		p.points = append(p.points, n)
		p.trajs = append(p.trajs, ts)
		p.measure = append(p.measure, errm.SED)
	}
	return p, nil
}

// buildDirty: POST /v1/simplify with "repair" and a per-measure "bound",
// alternating SED (served by CISED) and PED (served by OPERB) over
// corrupted Geolife trajectories of 2k-5k fixes.
func buildDirty(seed int64) (*closedPlan, error) {
	r := rand.New(rand.NewSource(seed))
	lens := stratified(r, dirtyBodies, dirtyMinLen, dirtyMaxLen)
	fam := dirtyFamily()
	p := &closedPlan{path: "/v1/simplify"}
	type bounded struct {
		rep   traj.RepairReport
		bound float64
		algo  string
	}
	refs := make([]bounded, len(lens))
	for i, n := range lens {
		clean := gen.New(gen.Geolife(), r.Int63()).Trajectory(n)
		raw := gen.Raw(fam.Corrupt(clean, r.Int63()))
		m, bound, algo := errm.SED, dirtyBoundSED, "CISED"
		if i%2 == 1 {
			m, bound, algo = errm.PED, dirtyBoundPED, "OPERB"
		}
		t, rep, err := traj.Repair(raw, dirtyRepair.config())
		if err != nil {
			return nil, fmt.Errorf("dirty body %d: %w", i, err)
		}
		var kept []int
		if m == errm.SED {
			kept, err = online.CISED(t, bound)
		} else {
			kept, err = online.OPERB(t, bound)
		}
		if err != nil {
			return nil, err
		}
		refs[i] = bounded{rep: rep, bound: bound, algo: algo}
		p.ref = append(p.ref, []simplified{{kept: kept, err: errm.Error(m, t, kept)}})
		rp := dirtyRepair
		body, err := marshal(&simplifyRequest{Measure: m.String(), Bound: &refs[i].bound, Repair: &rp, Points: raw})
		if err != nil {
			return nil, err
		}
		p.bodies = append(p.bodies, body)
		p.points = append(p.points, len(raw))
		p.trajs = append(p.trajs, []traj.Trajectory{t})
		p.measure = append(p.measure, m)
	}
	p.check = func(i int, resp []byte) (quality, bool, error) {
		var got simplifyResponse
		if err := json.Unmarshal(resp, &got); err != nil {
			return quality{}, false, err
		}
		want, t := refs[i], p.trajs[i][0]
		switch {
		case got.Algorithm != want.algo || got.Mode != "exact":
			return quality{}, false, fmt.Errorf("algorithm %q mode %q, want %q exact", got.Algorithm, got.Mode, want.algo)
		case got.Bound == nil || *got.Bound != want.bound:
			return quality{}, false, fmt.Errorf("bound echo %v, want %v", got.Bound, want.bound)
		case got.BoundMet == nil || !*got.BoundMet || got.Error > want.bound:
			return quality{}, false, fmt.Errorf("bound %v not met: error %v", want.bound, got.Error)
		}
		if err := p.ref[i][0].checkItem(t, got.Kept, got.Of, got.Error, got.Points); err != nil {
			return quality{}, false, err
		}
		// A missing repair report is a known server gap, counted and
		// not failed; a present one must match the in-process repair.
		if got.Repair != nil {
			w := repairReport{Pushed: want.rep.Pushed, Emitted: want.rep.Emitted, NonFinite: want.rep.NonFinite,
				Late: want.rep.Late, Reordered: want.rep.Reordered, Duplicates: want.rep.Duplicates, Outliers: want.rep.Outliers}
			if *got.Repair != w {
				return quality{}, false, fmt.Errorf("repair report %+v, want %+v", *got.Repair, w)
			}
		}
		var q quality
		err := q.observe(p.measure[i], t, got.Kept, got.Error)
		return q, got.Repair == nil, err
	}
	return p, nil
}
