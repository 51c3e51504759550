package main

// The in-process replays of the traced run: the stage mirror of each
// route, the greedy-simplification decomposition, and the ServeHTTP
// passes on in-process servers.

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"

	"rlts/internal/baseline/online"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/geo"
	"rlts/internal/obs"
	"rlts/internal/server"
	"rlts/internal/storage"
	"rlts/internal/traj"
)

// replay holds one workload's inputs for the in-process passes.
type replay struct {
	name   string
	closed *closedPlan
	stream *streamPlan
}

// head returns the replay cut to its first n closed-loop bodies.
func (rp replay) head(n int) replay {
	if p := rp.closed; p != nil && len(p.bodies) > n {
		q := *p
		q.bodies, q.points, q.trajs, q.measure = p.bodies[:n], p.points[:n], p.trajs[:n], p.measure[:n]
		rp.closed = &q
	}
	return rp
}

// encodeJSON is the server's writeJSON: one json.Encoder.Encode.
func encodeJSON(v interface{}) {
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(v)
}

// opMirror replays one closed-loop operation through the same public
// calls, in the same order, as the server's handler for its route, with
// one "stages" span whose children are the stage spans.
type opMirror func(t *tracer, op int) error

func closedMirror(ps *policySet, rp replay) (opMirror, error) {
	switch rp.name {
	case "single_long":
		return singleMirror(ps, rp.closed), nil
	case "batch_geolife":
		return batchMirror(ps, rp.closed)
	default:
		return dirtyMirror(rp.closed), nil
	}
}

// mirror replays every operation of a workload through its stage mirror,
// and on single_long the decomposition after them.
func mirror(t *tracer, ps *policySet, rp replay, dir string) error {
	if rp.stream != nil {
		return mirrorStream(t, ps, rp.stream, dir)
	}
	m, err := closedMirror(ps, rp)
	if err != nil {
		return err
	}
	for op := range rp.closed.bodies {
		// This process's heap holds every generated body, so a collection
		// before each one keeps its garbage collector out of the timed
		// calls, as the fastest round trip leaves the server's out.
		runtime.GC()
		if err := m(t, op); err != nil {
			return err
		}
	}
	if rp.name == "single_long" {
		return decompose(t, ps, rp.closed)
	}
	return nil
}

func singleMirror(ps *policySet, p *closedPlan) opMirror {
	pol := &core.Trained{Opts: ps.plusSED.Opts, Policy: ps.plusSED.Policy.Clone()}
	return func(t *tracer, op int) error {
		body := p.bodies[op]
		root := t.begin("stages", op, 0)
		var req simplifyRequest
		var err error
		t.allocs("server.decode", op, root, func() (int, int) {
			err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
			return len(req.Points), 0
		})
		if err != nil {
			return err
		}
		var tr traj.Trajectory
		t.timed("traj.validate", op, root, func() (int, int) {
			tr, err = traj.FromPoints(req.Points)
			return len(req.Points), 0
		})
		if err != nil {
			return err
		}
		var kept []int
		t.allocs("core.simplify", op, root, func() (int, int) {
			kept, err = pol.SimplifyGreedy(tr, budget(req.Ratio, len(tr)))
			return len(tr), len(kept)
		})
		if err != nil {
			return err
		}
		var e float64
		t.timed("errm.rescore", op, root, func() (int, int) {
			e = errm.Error(errm.SED, tr, kept)
			return len(tr), 0
		})
		t.timed("server.encode", op, root, func() (int, int) {
			resp := simplifyResponse{Algorithm: pol.Opts.Name(), Mode: "exact", Kept: len(kept), Of: len(tr), Error: e}
			for _, ix := range kept {
				resp.Points = append(resp.Points, [3]float64{tr[ix].X, tr[ix].Y, tr[ix].T})
			}
			encodeJSON(&resp)
			return len(tr), len(kept)
		})
		t.end(root, p.points[op], 0)
		return nil
	}
}

// decompose splits greedy simplification into policy decisions and the
// environment around them: core.TraceGreedy records every decision's
// state, and rl.act replays (*rl.Policy).Act over those states. It is
// tracing only, so a bare replay skips it.
func decompose(t *tracer, ps *policySet, p *closedPlan) error {
	if t.bare {
		return nil
	}
	pol := &core.Trained{Opts: ps.plusSED.Opts, Policy: ps.plusSED.Policy.Clone()}
	for op, ts := range p.trajs {
		root := t.begin("decompose", op, 0)
		for _, tr := range ts {
			w := budget(simplifyRatio, len(tr))
			dt, err := core.TraceGreedy(pol.Policy, tr, w, pol.Opts)
			if err != nil {
				return err
			}
			t.timed("rl.act", op, root, func() (int, int) {
				for k := range dt.Actions {
					pol.Policy.Act(dt.States[k*dt.StateSize:(k+1)*dt.StateSize], dt.Masks[k], false, nil)
				}
				return len(tr), len(dt.Actions)
			})
		}
		t.end(root, 0, 0)
	}
	return nil
}

func batchMirror(ps *policySet, p *closedPlan) (opMirror, error) {
	workers := runtime.GOMAXPROCS(0)
	engines := make([]*core.BatchEngine, workers)
	for i := range engines {
		var err error
		if engines[i], err = core.NewBatchEngine(ps.plusSED.Policy.Clone(), ps.plusSED.Opts, false); err != nil {
			return nil, err
		}
	}
	return func(t *tracer, op int) error {
		body := p.bodies[op]
		root := t.begin("stages", op, 0)
		var req batchRequest
		var err error
		t.allocs("server.decode", op, root, func() (int, int) {
			err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
			return p.points[op], 0
		})
		if err != nil {
			return err
		}
		items := make([]core.BatchItem, len(req.Items))
		t.timed("traj.validate", op, root, func() (int, int) {
			for i, it := range req.Items {
				var tr traj.Trajectory
				if tr, err = traj.FromPoints(it.Points); err != nil {
					break
				}
				items[i] = core.BatchItem{T: tr, W: budget(req.Ratio, len(tr))}
			}
			return p.points[op], 0
		})
		if err != nil {
			return err
		}
		// Shards of the default width run on GOMAXPROCS workers, as the
		// server runs them; each is a core.batch_run span.
		results := make([]core.BatchResult, len(items))
		parent := t.begin("core.batch", op, root)
		var wg sync.WaitGroup
		idle := make(chan int, workers)
		for i := 0; i < workers; i++ {
			idle <- i
		}
		for lo := 0; lo < len(items); lo += server.DefaultBatchWidth {
			hi := lo + server.DefaultBatchWidth
			if hi > len(items) {
				hi = len(items)
			}
			w := <-idle
			wg.Add(1)
			go func(lo, hi, w int) {
				defer wg.Done()
				id := t.begin("core.batch_run", op, parent)
				copy(results[lo:hi], engines[w].RunCtx(context.Background(), items[lo:hi]))
				n := 0
				for _, it := range items[lo:hi] {
					n += len(it.T)
				}
				t.end(id, n, 0)
				idle <- w
			}(lo, hi, w)
		}
		wg.Wait()
		t.end(parent, p.points[op], 0)
		errs := make([]float64, len(items))
		t.timed("errm.rescore", op, root, func() (int, int) {
			for i, res := range results {
				if res.Err != nil {
					err = res.Err
					break
				}
				errs[i] = errm.Error(errm.SED, items[i].T, res.Kept)
			}
			return p.points[op], 0
		})
		if err != nil {
			return err
		}
		t.timed("server.encode", op, root, func() (int, int) {
			resp := batchResponse{Algorithm: ps.plusSED.Opts.Name(), Mode: "exact", Items: make([]batchItemResult, len(items))}
			kept := 0
			for i, res := range results {
				resp.Items[i] = batchItemResult{Kept: len(res.Kept), Of: len(items[i].T), Error: &errs[i], Points: toPoints(items[i].T, res.Kept)}
				kept += len(res.Kept)
			}
			encodeJSON(&resp)
			return p.points[op], kept
		})
		t.end(root, p.points[op], 0)
		return nil
	}, nil
}

func dirtyMirror(p *closedPlan) opMirror {
	return func(t *tracer, op int) error {
		body := p.bodies[op]
		root := t.begin("stages", op, 0)
		var req simplifyRequest
		var err error
		t.allocs("server.decode", op, root, func() (int, int) {
			err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
			return len(req.Points), 0
		})
		if err != nil {
			return err
		}
		var tr traj.Trajectory
		t.timed("traj.repair", op, root, func() (int, int) {
			var rep traj.RepairReport
			tr, rep, err = traj.Repair(req.Points, req.Repair.config())
			return len(req.Points), rep.Emitted
		})
		if err != nil {
			return err
		}
		m := p.measure[op]
		var kept []int
		t.timed("online.bounded", op, root, func() (int, int) {
			if m == errm.SED {
				kept, err = online.CISED(tr, *req.Bound)
			} else {
				kept, err = online.OPERB(tr, *req.Bound)
			}
			return len(tr), len(kept)
		})
		if err != nil {
			return err
		}
		var e float64
		t.timed("errm.rescore", op, root, func() (int, int) {
			e = errm.Error(m, tr, kept)
			return len(tr), 0
		})
		t.timed("server.encode", op, root, func() (int, int) {
			met := e <= *req.Bound
			algo := "CISED"
			if m == errm.PED {
				algo = "OPERB"
			}
			resp := simplifyResponse{Algorithm: algo, Mode: "exact", Kept: len(kept), Of: len(tr), Error: e,
				Bound: req.Bound, BoundMet: &met, Points: toPoints(tr, kept)}
			encodeJSON(&resp)
			return len(tr), len(kept)
		})
		t.end(root, p.points[op], 0)
		return nil
	}
}

// streamMirror is the session store of the stream mirror: streamers for
// the hot devices in LRU order, spilled ones in files of dir, moved
// through the state codec and storage.WriteFileAtomic as the server's
// store moves them.
type streamMirror struct {
	t     *tracer
	tr    *core.Trained
	dir   string
	sess  []*core.Streamer
	lru   *list.List
	where map[int]*list.Element
}

func (m *streamMirror) path(d int) string { return filepath.Join(m.dir, strconv.Itoa(d)+".sess") }

// touch makes device d hot, rehydrating it if it was spilled, and spills
// the least recently used devices beyond the hot budget.
func (m *streamMirror) touch(d, op, parent int) error {
	if e, ok := m.where[d]; ok {
		m.lru.MoveToFront(e)
		return nil
	}
	if m.sess[d] == nil {
		var data []byte
		var err error
		m.t.timed("storage.read", op, parent, func() (int, int) {
			data, err = os.ReadFile(m.path(d))
			if err == nil {
				err = os.Remove(m.path(d))
			}
			return 0, len(data)
		})
		if err != nil {
			return err
		}
		m.t.timed("core.state_decode", op, parent, func() (int, int) {
			var st *core.StreamerState
			if st, err = core.DecodeStreamerState(data); err == nil {
				m.sess[d], err = core.ResumeStreamer(m.tr.Policy.Clone(), m.tr.Opts, st, nil)
			}
			return 0, len(data)
		})
		if err != nil {
			return err
		}
	}
	m.where[d] = m.lru.PushFront(d)
	for m.lru.Len() > streamHot {
		v := m.lru.Remove(m.lru.Back()).(int)
		delete(m.where, v)
		var blob []byte
		m.t.timed("core.state_encode", op, parent, func() (int, int) {
			blob = m.sess[v].ExportState().AppendBinary(nil)
			return 0, len(blob)
		})
		var err error
		m.t.timed("storage.write_atomic", op, parent, func() (int, int) {
			err = storage.WriteFileAtomic(m.path(v), blob)
			return 0, len(blob)
		})
		if err != nil {
			return err
		}
		m.sess[v] = nil
	}
	return nil
}

func mirrorStream(t *tracer, ps *policySet, p *streamPlan, dir string) error {
	m := &streamMirror{t: t, tr: ps.onlineSED, dir: dir, sess: make([]*core.Streamer, streamDevices),
		lru: list.New(), where: make(map[int]*list.Element)}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	warm := &tracer{epoch: t.epoch} // creates and warm-up are replayed untimed
	m.t = warm
	for d := 0; d < streamDevices; d++ {
		s, err := core.NewStreamer(m.tr.Policy.Clone(), streamW, m.tr.Opts, false, nil)
		if err != nil {
			return err
		}
		m.sess[d] = s
		if err := m.touch(d, -1, 0); err != nil {
			return err
		}
	}
	for i := range p.ops {
		if i == p.warm {
			m.t = t
		}
		op := &p.ops[i]
		root := m.t.begin("stages", i, 0)
		if op.snapshot {
			if err := m.touch(op.device, i, root); err != nil {
				return err
			}
			var pts [][3]float64
			s := m.sess[op.device]
			m.t.timed("core.stream_snapshot", i, root, func() (int, int) {
				sp := s.Snapshot()
				pts = make([][3]float64, len(sp))
				for k, pt := range sp {
					pts[k] = [3]float64{pt.X, pt.Y, pt.T}
				}
				return 0, len(pts)
			})
			m.t.timed("server.encode", i, root, func() (int, int) {
				encodeJSON(map[string]interface{}{"algorithm": m.tr.Opts.Name(), "w": s.Budget(), "seen": s.Seen(),
					"kept": len(pts), "error": s.ErrEst(), "points": pts})
				return 0, len(pts)
			})
			m.t.end(root, 0, 0)
			continue
		}
		var req pushRequest
		var err error
		m.t.allocs("server.decode", i, root, func() (int, int) {
			err = json.NewDecoder(bytes.NewReader(op.body)).Decode(&req)
			return len(req.Points), 0
		})
		if err != nil {
			return err
		}
		if err := m.touch(op.device, i, root); err != nil {
			return err
		}
		s := m.sess[op.device]
		var batch traj.Trajectory
		m.t.timed("traj.validate", i, root, func() (int, int) {
			last, ok := s.Last()
			check := make(traj.Trajectory, 0, len(req.Points)+1)
			if ok {
				check = append(check, last)
			}
			for _, pt := range req.Points {
				check = append(check, geo.Point{X: pt[0], Y: pt[1], T: pt[2]})
			}
			err = check.Validate()
			batch = check
			if ok {
				batch = check[1:]
			}
			return len(req.Points), 0
		})
		if err != nil {
			return err
		}
		before := s.Skipped()
		m.t.allocs("core.stream_push", i, root, func() (int, int) {
			for _, pt := range batch {
				s.Push(pt)
			}
			return len(batch), 0
		})
		m.t.timed("server.encode", i, root, func() (int, int) {
			encodeJSON(map[string]interface{}{"seen": s.Seen(), "buffered": s.BufferSize(), "skipped": s.Skipped() - before})
			return len(batch), 0
		})
		m.t.end(root, len(batch), 0)
	}
	return nil
}

// inproc is an in-process server configured as the workload's
// rlts-server, for the ServeHTTP passes.
type inproc struct {
	sv *server.Server
	h  http.Handler
}

func newInproc(ps *policySet, stream bool, dir string) (*inproc, error) {
	cfg := server.Config{Metrics: obs.NewRegistry()}
	if stream {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		cfg.SpillDir, cfg.MaxHotSessions, cfg.MaxStreams = dir, streamHot, 2*streamDevices
	}
	sv := server.NewWith(ps.all, cfg)
	return &inproc{sv: sv, h: sv.Handler()}, nil
}

// serve answers one request; fn wraps the ServeHTTP call (in a span, or
// not at all). Every answer must be 200.
func (s *inproc) serve(method, path string, body []byte, fn func(call func())) ([]byte, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	fn(func() { s.h.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("in-process %s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), nil
}

// counters reads the server's unlabelled /metrics counters.
func (s *inproc) counters() (map[string]float64, error) {
	body, err := s.serve(http.MethodGet, "/metrics", nil, func(call func()) { call() })
	if err != nil {
		return nil, err
	}
	return parseCounters(body), nil
}

// handlerPasses times (*server.Server).Handler().ServeHTTP on two fresh
// in-process servers fed the same operations in the same order: on one
// plainly ("server.handle_untraced" spans), on the other with mallocs
// counted around each call ("server.handle" spans). The two alternate
// operation by operation, so both see the same conditions. Closed-loop
// bodies are served once untimed to warm pools and caches, then reps
// times, and after(rep, op) runs after each body is served (rep -1 for
// the untimed pass), so a caller can time other work on the same body at
// the same moment; the stream replays the creates and warm-up untimed.
// It returns the plain server's /metrics counter deltas over the timed
// operations, per timed operation.
func handlerPasses(untraced, traced *tracer, ps *policySet, rp replay, dir string, reps int, after func(rep, op int) error) (map[string]float64, error) {
	var srv [2]*inproc
	for i := range srv {
		var err error
		if srv[i], err = newInproc(ps, rp.stream != nil, filepath.Join(dir, "inproc-"+strconv.Itoa(i))); err != nil {
			return nil, err
		}
		defer srv[i].sv.Close()
	}
	var before map[string]float64
	timed := 0
	// serveOp serves one operation on both servers, the paths given per
	// server; op < 0 is warm-up, served untimed.
	serveOp := func(op int, method string, path [2]string, body []byte) error {
		if op >= 0 && before == nil {
			var err error
			if before, err = srv[0].counters(); err != nil {
				return err
			}
		}
		for i := range srv {
			fn := func(call func()) { call() }
			switch {
			case op < 0:
			case i == 0:
				fn = func(call func()) {
					untraced.timed("server.handle_untraced", op, 0, func() (int, int) { call(); return 0, 0 })
				}
			default:
				fn = func(call func()) {
					traced.allocs("server.handle", op, 0, func() (int, int) { call(); return 0, 0 })
				}
			}
			if _, err := srv[i].serve(method, path[i], body, fn); err != nil {
				return err
			}
		}
		if op >= 0 {
			timed++
		}
		return nil
	}
	if p := rp.closed; p != nil {
		for rep := -1; rep < reps; rep++ {
			for b, body := range p.bodies {
				op := b
				if rep < 0 {
					op = -1
				}
				runtime.GC() // see mirror
				if err := serveOp(op, http.MethodPost, [2]string{p.path, p.path}, body); err != nil {
					return nil, err
				}
				if after != nil {
					if err := after(rep, b); err != nil {
						return nil, err
					}
				}
			}
		}
	} else {
		p := rp.stream
		ids := [2][]string{make([]string, streamDevices), make([]string, streamDevices)}
		for d := 0; d < streamDevices; d++ {
			for i := range srv {
				resp, err := srv[i].serve(http.MethodPost, "/v1/stream", p.create, func(call func()) { call() })
				if err != nil {
					return nil, err
				}
				var created struct{ ID string }
				if err := json.Unmarshal(resp, &created); err != nil || created.ID == "" {
					return nil, fmt.Errorf("in-process create answered %s", resp)
				}
				ids[i][d] = created.ID
			}
		}
		for i := range p.ops {
			op := &p.ops[i]
			k := i
			if i < p.warm {
				k = -1
			}
			method, suffix := http.MethodPost, "/points"
			if op.snapshot {
				method, suffix = http.MethodGet, ""
			}
			path := [2]string{"/v1/stream/" + ids[0][op.device] + suffix, "/v1/stream/" + ids[1][op.device] + suffix}
			if err := serveOp(k, method, path, op.body); err != nil {
				return nil, err
			}
		}
	}
	last, err := srv[0].counters()
	if err != nil {
		return nil, err
	}
	deltas := make(map[string]float64, len(last))
	for k, v := range last {
		deltas[k] = div(v-before[k], float64(timed))
	}
	return deltas, nil
}
