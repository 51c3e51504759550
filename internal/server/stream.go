package server

// Streaming session API: the HTTP face of core.Streamer, the paper's
// online mode. A session owns one streamer; clients create it with an
// algorithm, measure and buffer budget W, push points as their sensor
// produces them, and snapshot the current simplification at any time.
// Sessions are evicted after sitting idle for Config.StreamTTL.
//
//	POST   /v1/stream             create  {"algorithm","measure","w","sample","seed"}
//	GET    /v1/stream             list sessions (id, hot/cold tier, seen, kept)
//	POST   /v1/stream/{id}/points push    {"points": [[x,y,t], ...]}
//	GET    /v1/stream/{id}        snapshot
//	DELETE /v1/stream/{id}        close
//
// Pushed points are validated at this layer with the same traj rules as
// the batch endpoints: finite coordinates and strictly increasing
// timestamps, checked against the session's last accepted point, so a
// duplicate timestamp across two pushes is rejected just like one within
// a single push.
//
// Sessions live in a sharded store: session ids hash across
// Config.StreamShards shards, each with its own lock and TTL janitor, so
// a million sessions never serialize on one mutex and a disk write
// stalls only 1/N of the keyspace. With Config.SpillDir set the store is
// durable and memory-bounded: when a shard holds more than its share of
// Config.MaxHotSessions, the coldest sessions are serialized (versioned
// binary codec, CRC-sealed, written via storage.WriteAtomic) and
// rehydrated on their next push or snapshot, bit-identical to a session
// that never left memory; Server.DrainStreams spills everything for a
// restart. See spill.go and DESIGN.md §14 for the durability model.

import (
	"hash/fnv"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rlts/internal/core"
	"rlts/internal/geo"
	"rlts/internal/obs"
	"rlts/internal/traj"
)

// Stream-specific error codes.
const (
	codeStreamNotFound = "stream_not_found"
	codeTooManyStreams = "too_many_streams"
	codeNotStreamable  = "not_streamable"
	codeStreamCorrupt  = "stream_spill_corrupt"
	codeStreamBusy     = "stream_busy"
)

// streamSession is one live streaming simplification. The mutex
// serializes streamer access: core.Streamer is single-goroutine by
// design, and interleaved pushes from concurrent requests would be
// order-dependent anyway.
type streamSession struct {
	id   string
	key  string // policy registry key ("algo/measure", lower-case)
	algo string
	seed int64 // sampling seed; the RNG position lives in the streamer

	mu  sync.Mutex
	str *core.Streamer
	// rp, when non-nil, is the session's dirty-input repair stage: raw
	// pushes route through it and only its emitted points reach the
	// streamer. Fixes still sitting in the reordering window are NOT
	// flushed by snapshots or close — like skip-swallowed tails, they are
	// in flight until later fixes push them out (documented in DESIGN.md
	// §17). Spills carry its state as a versioned envelope extension.
	rp *traj.Repairer
	// lastActive is the unix-nano time of the last client touch, atomic
	// so the LRU spill scan and the TTL janitor read it without taking
	// every session's lock.
	lastActive atomic.Int64
	// closed is set (under mu) when the session is deleted by the client
	// or the TTL janitor. A handler that fetched the session from the map
	// before removal checks it after acquiring mu, so a push can never
	// land in — and report success against — a dead streamer whose
	// metrics were already flushed.
	closed bool
	// spilled is set (under mu, with the shard lock also held) when the
	// session's state moved to disk. A handler holding a stale pointer
	// re-acquires through the store, which rehydrates from the spill
	// file. The streamer reference is nil while spilled.
	spilled bool
}

// touch records client activity for TTL eviction and LRU spill order.
func (s *streamSession) touch() { s.lastActive.Store(time.Now().UnixNano()) }

// streamShard is one lock domain of the session store.
type streamShard struct {
	mu       sync.Mutex
	sessions map[string]*streamSession
}

// streamManager owns every session, enforces the session cap, runs TTL
// eviction, and — when a spill directory is configured — keeps the hot
// set bounded by spilling cold sessions to disk.
type streamManager struct {
	reg      *obs.Registry
	ttl      time.Duration
	max      int // cap on alive sessions (hot + spilled); <= 0 disables
	spillDir string
	maxHot   int // per-shard hot budget; <= 0 disables LRU spill

	spillWrite func(path string, data []byte) error

	shards []*streamShard
	// total counts alive sessions, hot and spilled. Creates reserve a
	// slot here BEFORE any counter or map is touched, so concurrent
	// creates can never overshoot max, even momentarily.
	total atomic.Int64

	active  *obs.Gauge // alive sessions (hot + spilled)
	hot     *obs.Gauge // sessions resident in memory
	created *obs.Counter
	closed  *obs.Counter
	evicted *obs.Counter

	spills      *obs.Counter
	rehydrated  *obs.Counter
	spillErrors *obs.Counter
	corrupt     *obs.Counter
	recovered   *obs.Counter

	stopJanitor chan struct{}
	stopOnce    sync.Once
	wg          sync.WaitGroup
}

func newStreamManager(cfg Config) *streamManager {
	reg := cfg.Metrics
	m := &streamManager{
		reg:        reg,
		ttl:        cfg.StreamTTL,
		max:        cfg.MaxStreams,
		spillDir:   cfg.SpillDir,
		spillWrite: cfg.SpillWrite,
		shards:     make([]*streamShard, cfg.StreamShards),
		active: reg.Gauge("rlts_stream_sessions_active",
			"Streaming sessions currently open (in memory or spilled to disk)"),
		hot: reg.Gauge("rlts_stream_sessions_hot",
			"Streaming sessions resident in memory"),
		created: reg.Counter("rlts_stream_sessions_created_total",
			"Streaming sessions ever created"),
		closed: reg.Counter("rlts_stream_sessions_closed_total",
			"Streaming sessions closed by the client"),
		evicted: reg.Counter("rlts_stream_sessions_evicted_total",
			"Streaming sessions evicted after sitting idle past the TTL"),
		spills: reg.Counter("rlts_stream_spills_total",
			"Session states spilled to disk (LRU pressure or drain)"),
		rehydrated: reg.Counter("rlts_stream_rehydrations_total",
			"Session states rehydrated from disk"),
		spillErrors: reg.Counter("rlts_stream_spill_errors_total",
			"Failed spill writes (session stayed live in memory)"),
		corrupt: reg.Counter("rlts_stream_spill_corrupt_total",
			"Corrupt or unreadable spill files quarantined"),
		recovered: reg.Counter("rlts_stream_sessions_recovered_total",
			"Spilled sessions found by the startup recovery scan"),
		stopJanitor: make(chan struct{}),
	}
	if m.spillWrite == nil {
		m.spillWrite = defaultSpillWrite
	}
	for i := range m.shards {
		m.shards[i] = &streamShard{sessions: make(map[string]*streamSession)}
	}
	if cfg.MaxHotSessions > 0 && m.spillDir != "" {
		m.maxHot = (cfg.MaxHotSessions + len(m.shards) - 1) / len(m.shards)
		if m.maxHot < 1 {
			m.maxHot = 1
		}
	}
	if m.spillDir != "" {
		m.recoveryScan()
	}
	if m.ttl > 0 {
		for _, sh := range m.shards {
			sh := sh
			m.wg.Add(1)
			go func() { defer m.wg.Done(); m.janitor(sh) }()
		}
		if m.spillDir != "" {
			m.wg.Add(1)
			go func() { defer m.wg.Done(); m.spillReaper() }()
		}
	}
	return m
}

// shardFor hashes a session id onto its shard (FNV-1a).
func (m *streamManager) shardFor(id string) *streamShard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return m.shards[h.Sum32()%uint32(len(m.shards))]
}

// janitorTick bounds over-retention at 1.25×TTL while letting tests with
// millisecond TTLs converge quickly.
func (m *streamManager) janitorTick() time.Duration {
	tick := m.ttl / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	return tick
}

// janitor periodically sweeps one shard's idle sessions.
func (m *streamManager) janitor(sh *streamShard) {
	t := time.NewTicker(m.janitorTick())
	defer t.Stop()
	for {
		select {
		case <-m.stopJanitor:
			return
		case now := <-t.C:
			m.evictIdleShard(sh, now)
		}
	}
}

func (m *streamManager) evictIdleShard(sh *streamShard, now time.Time) {
	sh.mu.Lock()
	var idle []*streamSession
	for id, s := range sh.sessions {
		s.mu.Lock()
		if now.UnixNano()-s.lastActive.Load() > int64(m.ttl) {
			// Marking closed under both locks means no handler can slip a
			// push in between the map removal and the final flush.
			s.closed = true
			delete(sh.sessions, id)
			idle = append(idle, s)
		}
		s.mu.Unlock()
	}
	sh.mu.Unlock()
	for _, s := range idle {
		m.evicted.Inc()
		m.active.Dec()
		m.hot.Dec()
		m.total.Add(-1)
		s.mu.Lock()
		s.str.FlushMetrics()
		s.mu.Unlock()
	}
}

// stop terminates the janitor goroutines (Server.Close).
func (m *streamManager) stop() {
	m.stopOnce.Do(func() { close(m.stopJanitor) })
	m.wg.Wait()
}

type streamCreateRequest struct {
	Algorithm string `json:"algorithm"`
	Measure   string `json:"measure"`
	W         int    `json:"w"`
	// Sample turns on stochastic action selection (the paper's online-mode
	// default is sampling; the API defaults to greedy so snapshots are
	// deterministic functions of the pushed points).
	Sample bool  `json:"sample"`
	Seed   int64 `json:"seed"`
	// Repair opts the session into dirty-input repair: pushes accept
	// out-of-order, duplicated and non-finite fixes and route them
	// through a per-session traj.Repairer instead of strict validation.
	Repair *repairParams `json:"repair,omitempty"`
}

func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	var req streamCreateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	m, aerr := parseMeasure(req.Measure)
	if aerr != nil {
		aerr.write(w)
		return
	}
	algo := strings.ToLower(req.Algorithm)
	if algo == "" {
		algo = "rlts"
	}
	p := s.policy(algo, m)
	if p == nil {
		httpError(w, http.StatusBadRequest, codeUnknownAlgorithm,
			"no policy registered for %q with measure %s", algo, m)
		return
	}
	if p.Opts.Variant != core.Online {
		httpError(w, http.StatusBadRequest, codeNotStreamable,
			"%s is a batch variant; only the online variant can stream", p.Opts.Name())
		return
	}
	if req.W < 2 {
		httpError(w, http.StatusBadRequest, codeInvalidBudget, "w must be >= 2, got %d", req.W)
		return
	}
	if s.cfg.MaxPoints > 0 && req.W > s.cfg.MaxPoints {
		httpError(w, http.StatusBadRequest, codeInvalidBudget,
			"w = %d exceeds the %d-point limit", req.W, s.cfg.MaxPoints)
		return
	}
	var rng *rand.Rand
	if req.Sample {
		rng = rand.New(rand.NewSource(req.Seed))
	}
	// Each session gets its own policy clone: Probs/Act run on policy-owned
	// forward scratch, so two sessions pushing concurrently on the shared
	// registered instance would race. Clones share nothing mutable.
	str, err := core.NewStreamer(p.Policy.Clone(), req.W, p.Opts, req.Sample, rng)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
		return
	}
	// Session metrics belong in the registry GET /metrics serves, not the
	// process-wide default.
	str.UseRegistry(s.cfg.Metrics)
	sess := &streamSession{
		id:   newRequestID(),
		key:  policyKey(algo, m),
		algo: p.Opts.Name(),
		seed: req.Seed,
		str:  str,
	}
	if req.Repair != nil {
		sess.rp = traj.NewRepairer(req.Repair.config())
	}
	sess.touch()
	sm := s.streams
	// Reserve the slot atomically before anything becomes visible: the
	// cap can never be overshot, not even momentarily in the metrics.
	if sm.max > 0 && sm.total.Add(1) > int64(sm.max) {
		sm.total.Add(-1)
		httpError(w, http.StatusTooManyRequests, codeTooManyStreams,
			"%d streaming sessions already open", sm.max)
		return
	}
	sh := sm.shardFor(sess.id)
	sh.mu.Lock()
	sh.sessions[sess.id] = sess
	// Counters move with the map under the shard lock, so a scrape can
	// never observe more created/active sessions than the cap allows.
	sm.created.Inc()
	sm.active.Inc()
	sm.hot.Inc()
	sm.enforceBudgetLocked(sh, sess)
	sh.mu.Unlock()
	writeJSON(w, map[string]interface{}{
		"id":        sess.id,
		"algorithm": sess.algo,
		"measure":   m.String(),
		"w":         req.W,
		"repair":    sess.rp != nil,
	})
}

// acquireSession fetches the session by id with its mutex HELD and its
// liveness verified, rehydrating from the spill directory on a miss. The
// caller must Unlock it. On failure the returned apiError describes the
// response to send.
func (s *Server) acquireSession(id string) (*streamSession, *apiError) {
	sm := s.streams
	for attempt := 0; attempt < 4; attempt++ {
		sh := sm.shardFor(id)
		sh.mu.Lock()
		sess := sh.sessions[id]
		if sess == nil && sm.spillDir != "" {
			var err error
			sess, err = s.rehydrateLocked(sh, id)
			if err != nil {
				sh.mu.Unlock()
				return nil, apiErrorf(http.StatusNotFound, codeStreamCorrupt,
					"streaming session %q had a corrupt spill file; it was quarantined", id)
			}
		}
		sh.mu.Unlock()
		if sess == nil {
			return nil, apiErrorf(http.StatusNotFound, codeStreamNotFound, "no streaming session %q", id)
		}
		sess.mu.Lock()
		if sess.closed {
			sess.mu.Unlock()
			return nil, apiErrorf(http.StatusNotFound, codeStreamNotFound, "no streaming session %q", id)
		}
		if sess.spilled {
			// Stale pointer: the session moved to disk between the map
			// lookup and this lock. Re-acquire; the store will rehydrate.
			sess.mu.Unlock()
			continue
		}
		return sess, nil
	}
	return nil, apiErrorf(http.StatusTooManyRequests, codeStreamBusy,
		"session %q is thrashing between memory and disk; retry", id)
}

// acquire is acquireSession with the failure written to w. When the
// session cannot be produced, acquire answers the request itself and
// returns nil.
func (s *Server) acquire(w http.ResponseWriter, id string) *streamSession {
	sess, aerr := s.acquireSession(id)
	if aerr != nil {
		aerr.write(w)
	}
	return sess
}

func (s *Server) handleStreamPush(w http.ResponseWriter, r *http.Request) {
	var req pointsRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Points) == 0 {
		s.repairMet.reject(codePointsTooShort)
		httpError(w, http.StatusBadRequest, codePointsTooShort, "no points in push")
		return
	}
	if s.cfg.MaxPoints > 0 && len(req.Points) > s.cfg.MaxPoints {
		httpError(w, http.StatusRequestEntityTooLarge, codeTooManyPoints,
			"push has %d points, limit is %d", len(req.Points), s.cfg.MaxPoints)
		return
	}
	sess := s.acquire(w, r.PathValue("id"))
	if sess == nil {
		return
	}
	defer sess.mu.Unlock()
	if sess.rp != nil {
		// Repair mode: raw fixes route through the session's repairer;
		// only its emitted points (strictly increasing by construction,
		// gated against everything emitted before, across pushes) reach
		// the streamer. No strict validation — repairing is the point.
		before := sess.rp.Report()
		skippedBefore := sess.str.Skipped()
		for _, p := range req.Points {
			for _, pt := range sess.rp.Push(geo.Point{X: p[0], Y: p[1], T: p[2]}) {
				sess.str.Push(pt)
			}
		}
		delta := sess.rp.Report().Sub(before)
		s.repairMet.observe(delta)
		sess.touch()
		writeJSON(w, map[string]interface{}{
			"seen":     sess.str.Seen(),
			"buffered": sess.str.BufferSize(),
			"skipped":  sess.str.Skipped() - skippedBefore,
			"pending":  sess.rp.Pending(),
			"repair":   reportJSON(delta),
		})
		return
	}
	// Validate the batch with the shared traj rules, prefixed with the
	// session's last accepted point so cross-push ordering (including
	// duplicate timestamps at the boundary) is enforced identically.
	last, hasLast := sess.str.Last()
	check := make(traj.Trajectory, 0, len(req.Points)+1)
	if hasLast {
		check = append(check, last)
	}
	for _, p := range req.Points {
		check = append(check, geo.Point{X: p[0], Y: p[1], T: p[2]})
	}
	if err := check.Validate(); err != nil {
		code := pointsErrorCode(err)
		s.repairMet.reject(code)
		httpError(w, http.StatusBadRequest, code, "invalid points: %v", err)
		return
	}
	batch := check
	if hasLast {
		batch = check[1:]
	}
	skippedBefore := sess.str.Skipped()
	for _, pt := range batch {
		sess.str.Push(pt)
	}
	sess.touch()
	writeJSON(w, map[string]interface{}{
		"seen":     sess.str.Seen(),
		"buffered": sess.str.BufferSize(),
		"skipped":  sess.str.Skipped() - skippedBefore,
	})
}

// streamListEntry is one row of GET /v1/stream. Tier reports where the
// session's state lives: "hot" (in memory) or "cold" (spilled to disk).
type streamListEntry struct {
	ID        string  `json:"id"`
	Tier      string  `json:"tier"`
	Algorithm string  `json:"algorithm"`
	W         int     `json:"w"`
	Seen      int     `json:"seen"`
	Kept      int     `json:"kept"`
	Error     float64 `json:"error"`
}

func (s *Server) handleStreamList(w http.ResponseWriter, r *http.Request) {
	list := s.listSessions()
	writeJSON(w, map[string]interface{}{"sessions": list, "count": len(list)})
}

// listSessions enumerates every live session, hot and cold, sorted by
// id. Cold sessions are read straight from their spill files — decoding
// an envelope is cheap and a read-only listing must not drag sessions
// back into memory (or quarantine a corrupt file; that is the job of
// the next real touch, which can answer a client properly).
func (s *Server) listSessions() []streamListEntry {
	sm := s.streams
	var out []streamListEntry
	seen := make(map[string]bool)
	for _, sh := range sm.shards {
		sh.mu.Lock()
		hot := make([]*streamSession, 0, len(sh.sessions))
		for _, sess := range sh.sessions {
			hot = append(hot, sess)
		}
		sh.mu.Unlock()
		// Session locks are taken outside the shard lock so a slow
		// handler on one session cannot stall the whole shard's listing.
		for _, sess := range hot {
			sess.mu.Lock()
			if sess.closed || sess.spilled {
				sess.mu.Unlock()
				continue
			}
			out = append(out, streamListEntry{
				ID:        sess.id,
				Tier:      "hot",
				Algorithm: sess.algo,
				W:         sess.str.Budget(),
				Seen:      sess.str.Seen(),
				Kept:      len(sess.str.Snapshot()),
				Error:     sess.str.ErrEst(),
			})
			seen[sess.id] = true
			sess.mu.Unlock()
		}
	}
	eachSpillFile(sm.spillDir, spillExt, func(id string, _ fs.DirEntry) {
		if seen[id] {
			return
		}
		data, err := os.ReadFile(sm.spillPath(id))
		if err != nil {
			return
		}
		rec, err := decodeSession(data)
		if err != nil || rec.ID != id {
			return
		}
		algo := rec.Key
		if p, ok := s.policies[rec.Key]; ok {
			algo = p.Opts.Name()
		}
		st := rec.State
		out = append(out, streamListEntry{
			ID:        id,
			Tier:      "cold",
			Algorithm: algo,
			W:         st.W,
			Seen:      st.Seen,
			Kept:      coldKept(st),
			Error:     st.ErrEst,
		})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (s *Server) handleStreamSnapshot(w http.ResponseWriter, r *http.Request) {
	sess := s.acquire(w, r.PathValue("id"))
	if sess == nil {
		return
	}
	snap := sess.str.Snapshot()
	seen := sess.str.Seen()
	// The live budget, not the creation-time w: a fleet rebalance may
	// have moved it since.
	budget := sess.str.Budget()
	errEst := sess.str.ErrEst()
	sess.touch()
	sess.mu.Unlock()
	pts := make([][3]float64, len(snap))
	for i, p := range snap {
		pts[i] = [3]float64{p.X, p.Y, p.T}
	}
	writeJSON(w, map[string]interface{}{
		"algorithm": sess.algo,
		"w":         budget,
		"seen":      seen,
		"kept":      len(pts),
		"error":     errEst,
		"points":    pts,
	})
}

func (s *Server) handleStreamClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sm := s.streams
	sh := sm.shardFor(id)
	sh.mu.Lock()
	sess := sh.sessions[id]
	if sess == nil {
		// Possibly spilled: close it on disk without paying for a full
		// policy rehydration.
		if sm.spillDir != "" {
			if done := s.closeSpilledLocked(w, sh, id); done {
				sh.mu.Unlock()
				return
			}
		}
		sh.mu.Unlock()
		httpError(w, http.StatusNotFound, codeStreamNotFound, "no streaming session %q", id)
		return
	}
	delete(sh.sessions, id)
	sh.mu.Unlock()
	sm.closed.Inc()
	sm.active.Dec()
	sm.hot.Dec()
	sm.total.Add(-1)
	sess.mu.Lock()
	sess.closed = true
	snap := sess.str.Snapshot() // flushes metrics
	seen := sess.str.Seen()
	sess.mu.Unlock()
	writeJSON(w, map[string]interface{}{"closed": true, "seen": seen, "kept": len(snap)})
}
