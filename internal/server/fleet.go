package server

// Fleet API: collective simplification under a shared storage budget.
// A fleet groups streaming sessions under one global point budget and a
// named allocation strategy (internal/fleet); rebalancing reads each
// member's live statistics (points seen, error estimate, policy
// pressure), computes a deterministic per-member budget split, and
// applies it through core.Streamer.SetBudget — shrinks first, so the
// collection never transiently holds more than the global budget.
//
//	POST   /v1/fleet                 create  {"budget","strategy"}
//	GET    /v1/fleet                 list fleets
//	GET    /v1/fleet/{id}            allocation + per-member error report
//	POST   /v1/fleet/{id}/attach     {"session": id}
//	POST   /v1/fleet/{id}/detach     {"session": id}
//	POST   /v1/fleet/{id}/rebalance  recompute and apply the allocation
//	DELETE /v1/fleet/{id}            delete the fleet (sessions survive)
//
// Fleets are durable alongside the sessions they govern: with
// Config.SpillDir set, every mutation persists the fleet record as
// <SpillDir>/<id>.fleet (atomic write, JSON), and a restarted server
// reloads the records at startup. Member budgets themselves live in the
// sessions' own spilled state (StreamerState.W), so an allocation
// survives a full spill/restart cycle without any extra machinery.
//
// A member that disappears (closed by its client, TTL-evicted, or its
// spill file quarantined) is detached automatically at the next
// rebalance and reported in the response; its budget returns to the
// pool. Sessions may exist outside any fleet, but attaching one session
// to two fleets is rejected — two allocators fighting over one W would
// make both budgets meaningless.

import (
	"encoding/json"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rlts/internal/fleet"
	"rlts/internal/obs"
)

// Fleet-specific error codes.
const (
	codeFleetNotFound = "fleet_not_found"
	codeFleetInvalid  = "fleet_invalid"
	codeFleetMember   = "fleet_member"
)

const fleetExt = ".fleet"

// fleetRecord is one fleet's durable state — exactly what is serialized
// to <id>.fleet. Member statistics are not stored: they are live
// session properties, re-read at every rebalance.
type fleetRecord struct {
	ID       string `json:"id"`
	Budget   int    `json:"budget"`
	Strategy string `json:"strategy"`
	// Members holds the attached session ids, sorted.
	Members []string `json:"members"`
	// Alloc is the most recently applied allocation (empty before the
	// first rebalance).
	Alloc []fleet.Assignment `json:"alloc,omitempty"`
	// Rebalances counts allocation applications over the fleet's life.
	Rebalances int `json:"rebalances"`
}

func (f *fleetRecord) hasMember(id string) bool {
	for _, m := range f.Members {
		if m == id {
			return true
		}
	}
	return false
}

// fleetManager owns every fleet record. One mutex guards the whole map:
// fleet mutations are control-plane operations (a handful per minute),
// not data-plane ones, so sharding would buy nothing.
type fleetManager struct {
	mu     sync.Mutex
	fleets map[string]*fleetRecord
	// owner maps session id -> fleet id, enforcing single-fleet
	// membership.
	owner map[string]string
	dir   string // persistence directory (Config.SpillDir); "" = memory-only
	write func(path string, data []byte) error

	active     *obs.Gauge
	budget     *obs.Gauge
	members    *obs.Gauge
	rebalances *obs.Counter
	moved      *obs.Counter
	memberErr  func(strategy string) *obs.Histogram

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newFleetManager(cfg Config) *fleetManager {
	reg := cfg.Metrics
	m := &fleetManager{
		fleets: make(map[string]*fleetRecord),
		owner:  make(map[string]string),
		dir:    cfg.SpillDir,
		write:  cfg.SpillWrite,
		active: reg.Gauge("rlts_fleet_active",
			"Fleets currently defined"),
		budget: reg.Gauge("rlts_fleet_budget_points",
			"Global point budget summed across all fleets"),
		members: reg.Gauge("rlts_fleet_member_sessions",
			"Streaming sessions attached to a fleet"),
		rebalances: reg.Counter("rlts_fleet_rebalances_total",
			"Fleet allocations computed and applied"),
		moved: reg.Counter("rlts_fleet_budget_moved_total",
			"Budget points moved between sessions by rebalances"),
		memberErr: func(strategy string) *obs.Histogram {
			return reg.Histogram("rlts_fleet_member_error",
				"Per-member error estimates observed at rebalance, by allocation strategy",
				obs.ExpBuckets(1e-4, 4, 14), obs.L("strategy", strategy))
		},
		stop: make(chan struct{}),
	}
	if m.write == nil {
		m.write = defaultSpillWrite
	}
	if m.dir != "" {
		m.load()
	}
	return m
}

// load restores fleet records left by a previous process. Unreadable
// records are quarantined like corrupt session spills: renamed aside for
// the operator, never half-loaded.
func (m *fleetManager) load() {
	eachSpillFile(m.dir, fleetExt, func(id string, _ fs.DirEntry) {
		path := filepath.Join(m.dir, id+fleetExt)
		rec := m.decodeFleetFile(path, id)
		if rec == nil {
			os.Rename(path, path+corruptExt)
			return
		}
		m.fleets[id] = rec
		for _, sid := range rec.Members {
			m.owner[sid] = id
		}
		m.active.Inc()
		m.budget.Add(float64(rec.Budget))
		m.members.Add(float64(len(rec.Members)))
	})
}

func (m *fleetManager) decodeFleetFile(path, id string) *fleetRecord {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	rec := &fleetRecord{}
	if json.Unmarshal(data, rec) != nil || rec.ID != id ||
		rec.Budget < fleet.MinPerMember || len(rec.Members) > rec.Budget {
		return nil
	}
	if _, err := fleet.ParseStrategy(rec.Strategy); err != nil {
		return nil
	}
	return rec
}

// persist writes the fleet record under the manager lock. A write
// failure leaves the in-memory record authoritative (the same degraded
// mode session spills use); the next mutation retries.
func (m *fleetManager) persist(rec *fleetRecord) {
	if m.dir == "" {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return
	}
	m.write(filepath.Join(m.dir, rec.ID+fleetExt), data)
}

func (m *fleetManager) shutdown() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}

type fleetCreateRequest struct {
	Budget   int    `json:"budget"`
	Strategy string `json:"strategy"`
}

func (s *Server) handleFleetCreate(w http.ResponseWriter, r *http.Request) {
	var req fleetCreateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	strat, err := fleet.ParseStrategy(req.Strategy)
	if err != nil {
		httpError(w, http.StatusBadRequest, codeFleetInvalid, "%v", err)
		return
	}
	if req.Budget < fleet.MinPerMember {
		httpError(w, http.StatusBadRequest, codeInvalidBudget,
			"fleet budget must be >= %d, got %d", fleet.MinPerMember, req.Budget)
		return
	}
	fm := s.fleets
	rec := &fleetRecord{
		ID:       newRequestID(),
		Budget:   req.Budget,
		Strategy: strat.String(),
	}
	fm.mu.Lock()
	fm.fleets[rec.ID] = rec
	fm.active.Inc()
	fm.budget.Add(float64(rec.Budget))
	fm.persist(rec)
	fm.mu.Unlock()
	writeJSON(w, map[string]interface{}{
		"id":       rec.ID,
		"budget":   rec.Budget,
		"strategy": rec.Strategy,
	})
}

func (s *Server) handleFleetList(w http.ResponseWriter, r *http.Request) {
	fm := s.fleets
	fm.mu.Lock()
	list := make([]map[string]interface{}, 0, len(fm.fleets))
	ids := make([]string, 0, len(fm.fleets))
	for id := range fm.fleets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		rec := fm.fleets[id]
		list = append(list, map[string]interface{}{
			"id":         rec.ID,
			"budget":     rec.Budget,
			"strategy":   rec.Strategy,
			"members":    len(rec.Members),
			"rebalances": rec.Rebalances,
		})
	}
	fm.mu.Unlock()
	writeJSON(w, map[string]interface{}{"fleets": list, "count": len(list)})
}

// fleetMemberReport is one member's row in the GET /v1/fleet/{id}
// response: the applied budget next to the live session statistics the
// next rebalance would see.
type fleetMemberReport struct {
	ID    string  `json:"id"`
	W     int     `json:"w"`
	Tier  string  `json:"tier"`
	Seen  int     `json:"seen"`
	Kept  int     `json:"kept"`
	Error float64 `json:"error"`
}

func (s *Server) handleFleetGet(w http.ResponseWriter, r *http.Request) {
	fm := s.fleets
	id := r.PathValue("id")
	fm.mu.Lock()
	rec, ok := fm.fleets[id]
	var snapshot fleetRecord
	if ok {
		snapshot = *rec
		snapshot.Members = append([]string(nil), rec.Members...)
		snapshot.Alloc = append([]fleet.Assignment(nil), rec.Alloc...)
	}
	fm.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, codeFleetNotFound, "no fleet %q", id)
		return
	}
	// Join the member list against the session listing: a read-only
	// report must not rehydrate cold members just to describe them.
	byID := make(map[string]streamListEntry)
	for _, e := range s.listSessions() {
		byID[e.ID] = e
	}
	report := make([]fleetMemberReport, 0, len(snapshot.Members))
	total := 0
	for _, sid := range snapshot.Members {
		e, live := byID[sid]
		if !live {
			report = append(report, fleetMemberReport{ID: sid, Tier: "gone"})
			continue
		}
		report = append(report, fleetMemberReport{
			ID: sid, W: e.W, Tier: e.Tier, Seen: e.Seen, Kept: e.Kept, Error: e.Error,
		})
		total += e.Kept
	}
	writeJSON(w, map[string]interface{}{
		"id":         snapshot.ID,
		"budget":     snapshot.Budget,
		"strategy":   snapshot.Strategy,
		"rebalances": snapshot.Rebalances,
		"alloc":      snapshot.Alloc,
		"members":    report,
		"kept_total": total,
	})
}

func (s *Server) handleFleetDelete(w http.ResponseWriter, r *http.Request) {
	fm := s.fleets
	id := r.PathValue("id")
	fm.mu.Lock()
	rec, ok := fm.fleets[id]
	if ok {
		delete(fm.fleets, id)
		for _, sid := range rec.Members {
			delete(fm.owner, sid)
		}
		fm.active.Dec()
		fm.budget.Add(-float64(rec.Budget))
		fm.members.Add(-float64(len(rec.Members)))
		if fm.dir != "" && validSpillID(id) {
			os.Remove(filepath.Join(fm.dir, id+fleetExt))
		}
	}
	fm.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, codeFleetNotFound, "no fleet %q", id)
		return
	}
	// Members keep their current budgets; they are just no longer
	// governed.
	writeJSON(w, map[string]interface{}{"deleted": true, "members": len(rec.Members)})
}

type fleetMemberRequest struct {
	Session string `json:"session"`
}

func (s *Server) handleFleetAttach(w http.ResponseWriter, r *http.Request) {
	var req fleetMemberRequest
	if !decodeBody(w, r, &req) {
		return
	}
	id := r.PathValue("id")
	// Verify the session exists (rehydrating it if cold) BEFORE touching
	// the fleet record, so a typo'd id can never be attached.
	sess, aerr := s.acquireSession(req.Session)
	if aerr != nil {
		aerr.write(w)
		return
	}
	sess.mu.Unlock()
	fm := s.fleets
	fm.mu.Lock()
	defer fm.mu.Unlock()
	rec, ok := fm.fleets[id]
	if !ok {
		httpError(w, http.StatusNotFound, codeFleetNotFound, "no fleet %q", id)
		return
	}
	if owner, taken := fm.owner[req.Session]; taken {
		if owner == id {
			httpError(w, http.StatusConflict, codeFleetMember,
				"session %q is already a member of this fleet", req.Session)
		} else {
			httpError(w, http.StatusConflict, codeFleetMember,
				"session %q already belongs to fleet %q", req.Session, owner)
		}
		return
	}
	if need := fleet.MinPerMember * (len(rec.Members) + 1); need > rec.Budget {
		httpError(w, http.StatusConflict, codeInvalidBudget,
			"fleet budget %d cannot cover %d members at %d points each",
			rec.Budget, len(rec.Members)+1, fleet.MinPerMember)
		return
	}
	rec.Members = append(rec.Members, req.Session)
	sort.Strings(rec.Members)
	fm.owner[req.Session] = id
	fm.members.Inc()
	fm.persist(rec)
	writeJSON(w, map[string]interface{}{"attached": true, "members": len(rec.Members)})
}

func (s *Server) handleFleetDetach(w http.ResponseWriter, r *http.Request) {
	var req fleetMemberRequest
	if !decodeBody(w, r, &req) {
		return
	}
	id := r.PathValue("id")
	fm := s.fleets
	fm.mu.Lock()
	defer fm.mu.Unlock()
	rec, ok := fm.fleets[id]
	if !ok {
		httpError(w, http.StatusNotFound, codeFleetNotFound, "no fleet %q", id)
		return
	}
	if !rec.hasMember(req.Session) {
		httpError(w, http.StatusNotFound, codeFleetMember,
			"session %q is not a member of fleet %q", req.Session, id)
		return
	}
	rec.Members = removeString(rec.Members, req.Session)
	rec.Alloc = removeAssignment(rec.Alloc, req.Session)
	delete(fm.owner, req.Session)
	fm.members.Dec()
	fm.persist(rec)
	writeJSON(w, map[string]interface{}{"detached": true, "members": len(rec.Members)})
}

func removeString(list []string, v string) []string {
	out := list[:0]
	for _, x := range list {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

func removeAssignment(list []fleet.Assignment, id string) []fleet.Assignment {
	out := list[:0]
	for _, a := range list {
		if a.ID != id {
			out = append(out, a)
		}
	}
	return out
}

func (s *Server) handleFleetRebalance(w http.ResponseWriter, r *http.Request) {
	result, aerr := s.rebalanceFleet(r.PathValue("id"))
	if aerr != nil {
		aerr.write(w)
		return
	}
	writeJSON(w, result)
}

// rebalanceFleet recomputes and applies one fleet's allocation. It is
// the shared engine behind POST /v1/fleet/{id}/rebalance and the
// periodic janitor.
//
// Three phases, deliberately not under one lock:
//
//  1. read: each member session is acquired in turn and its live
//     statistics (seen, error estimate, policy pressure, current
//     budget) copied out; members that no longer exist are detached.
//  2. allocate: fleet.Allocate on the copied statistics — pure,
//     deterministic.
//  3. apply: SetBudget per member, shrinks before grows, so the sum of
//     live budgets never exceeds the global budget at any instant.
//
// Sessions keep serving pushes between phases; an allocation is a
// statement about the statistics read in phase 1, which is the best any
// allocator of a live system can promise.
func (s *Server) rebalanceFleet(id string) (map[string]interface{}, *apiError) {
	fm := s.fleets
	fm.mu.Lock()
	rec, ok := fm.fleets[id]
	if !ok {
		fm.mu.Unlock()
		return nil, apiErrorf(http.StatusNotFound, codeFleetNotFound, "no fleet %q", id)
	}
	memberIDs := append([]string(nil), rec.Members...)
	budget := rec.Budget
	strategyName := rec.Strategy
	fm.mu.Unlock()
	strat, err := fleet.ParseStrategy(strategyName)
	if err != nil {
		return nil, apiErrorf(http.StatusInternalServerError, codeInternal, "%v", err)
	}

	// Phase 1: read live member statistics.
	members := make([]fleet.Member, 0, len(memberIDs))
	oldW := make(map[string]int, len(memberIDs))
	var lost []string
	for _, sid := range memberIDs {
		sess, aerr := s.acquireSession(sid)
		if aerr != nil {
			if aerr.status == http.StatusTooManyRequests {
				// Thrashing is transient; keep the member, skip this round.
				return nil, aerr
			}
			lost = append(lost, sid)
			continue
		}
		members = append(members, fleet.Member{
			ID:       sid,
			Len:      sess.str.Seen(),
			Err:      sess.str.ErrEst(),
			Pressure: sess.str.PolicyPressure(),
		})
		oldW[sid] = sess.str.Budget()
		sess.mu.Unlock()
	}

	// Phase 2: allocate.
	alloc, err := fleet.Allocate(strat, members, budget)
	if err != nil {
		return nil, apiErrorf(http.StatusConflict, codeInvalidBudget, "%v", err)
	}

	// Phase 3: apply, shrinks before grows. A member that vanished
	// between phases joins the lost list; its share of this round's
	// budget goes unused until the next rebalance, never overspent.
	ordered := append([]fleet.Assignment(nil), alloc...)
	sort.Slice(ordered, func(i, j int) bool {
		di := ordered[i].W - oldW[ordered[i].ID]
		dj := ordered[j].W - oldW[ordered[j].ID]
		if di != dj {
			return di < dj
		}
		return ordered[i].ID < ordered[j].ID
	})
	moved := 0
	applied := 0
	for _, a := range ordered {
		if a.W == oldW[a.ID] {
			continue
		}
		sess, aerr := s.acquireSession(a.ID)
		if aerr != nil {
			lost = append(lost, a.ID)
			continue
		}
		if err := sess.str.SetBudget(a.W); err == nil {
			if d := a.W - oldW[a.ID]; d > 0 {
				moved += d
			} else {
				moved -= d
			}
			applied++
		}
		sess.mu.Unlock()
	}

	// Record the round.
	fm.mu.Lock()
	if cur, ok := fm.fleets[id]; ok {
		for _, sid := range lost {
			if cur.hasMember(sid) {
				cur.Members = removeString(cur.Members, sid)
				delete(fm.owner, sid)
				fm.members.Dec()
			}
		}
		cur.Alloc = alloc
		cur.Rebalances++
		fm.persist(cur)
	}
	fm.mu.Unlock()
	fm.rebalances.Inc()
	fm.moved.Add(uint64(moved))
	hist := fm.memberErr(strategyName)
	for _, m := range members {
		hist.Observe(m.Err)
	}

	return map[string]interface{}{
		"id":       id,
		"strategy": strategyName,
		"budget":   budget,
		"alloc":    alloc,
		"applied":  applied,
		"moved":    moved,
		"detached": lost,
	}, nil
}

// startFleetJanitor launches the periodic rebalancer when
// Config.FleetRebalanceEvery is positive. Each tick rebalances every
// fleet; errors (a fleet deleted mid-tick, a thrashing member) skip
// that fleet until the next tick.
func (s *Server) startFleetJanitor() {
	every := s.cfg.FleetRebalanceEvery
	if every <= 0 {
		return
	}
	fm := s.fleets
	fm.wg.Add(1)
	go func() {
		defer fm.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-fm.stop:
				return
			case <-t.C:
				fm.mu.Lock()
				ids := make([]string, 0, len(fm.fleets))
				for id := range fm.fleets {
					ids = append(ids, id)
				}
				fm.mu.Unlock()
				sort.Strings(ids)
				for _, id := range ids {
					s.rebalanceFleet(id)
				}
			}
		}
	}()
}
