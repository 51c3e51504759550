// Package server exposes trajectory simplification as an HTTP service —
// the deployment shape of the paper's batch mode (a server holding
// accumulated trajectories that shrinks them before storage or query
// processing). The service is stateless: each request carries a
// trajectory and names an algorithm; trained RLTS policies are registered
// at construction.
//
// Endpoints (JSON in/out):
//
//	GET    /healthz               liveness probe
//	GET    /metrics               Prometheus text-format metrics scrape
//	GET    /v1/algorithms         available algorithm names
//	POST   /v1/simplify           simplify one trajectory
//	POST   /v1/simplify/batch     simplify many trajectories in one request
//	POST   /v1/stats              Table-I-style statistics for a trajectory
//	POST   /v1/stream             open a streaming session (see stream.go)
//	GET    /v1/stream             list streaming sessions
//	POST   /v1/stream/{id}/points push points into a session
//	GET    /v1/stream/{id}        snapshot a session's simplification
//	DELETE /v1/stream/{id}        close a session
//	POST   /v1/fleet              create a fleet (shared budget; see fleet.go)
//	GET    /v1/fleet              list fleets
//	GET    /v1/fleet/{id}         fleet allocation + per-member error report
//	POST   /v1/fleet/{id}/attach  attach a session to a fleet
//	POST   /v1/fleet/{id}/detach  detach a session
//	POST   /v1/fleet/{id}/rebalance recompute and apply the allocation
//	DELETE /v1/fleet/{id}         delete a fleet
//
// With Config.EnablePprof, net/http/pprof is additionally mounted under
// /debug/pprof/.
//
// A simplify request:
//
//	{"algorithm": "rlts+", "measure": "SED", "w": 50,        // or "ratio": 0.1
//	 "points": [[x, y, t], ...]}
//
// and its response:
//
//	{"algorithm": "RLTS+", "mode": "exact", "kept": 50, "of": 500,
//	 "error": 3.21, "points": [[x, y, t], ...]}
//
// Policy decisions are always the exact forward's (DESIGN.md §13), so
// "mode" is always "exact" and a ?fast=1 parameter changes nothing.
//
// Failures come back as typed JSON errors — {"error": message, "code":
// machine-readable-code} — with the conventional status: 400 for invalid
// input (non-finite coordinates, unordered timestamps, bad budgets), 405
// with an Allow header for a method the path does not serve, 413 for
// oversized bodies or trajectories, 429 under load shedding, 504 when
// the per-request deadline expires, and 500 for recovered panics. The
// Harden middleware (panic recovery, load shedding, deadlines) wraps every
// handler; see middleware.go.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"

	"rlts/internal/baseline"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/obs"
	"rlts/internal/traj"
)

// MaxBodyBytes bounds request bodies at 64 MiB. A 1,000,000-point
// trajectory is ~25-50 MB of JSON depending on coordinate precision, so
// the limit admits the largest sane request (see Config.MaxPoints) with
// headroom while refusing unbounded uploads with 413.
const MaxBodyBytes = 64 << 20

// Machine-readable error codes carried in the "code" field of error
// responses.
const (
	codeBadRequest       = "bad_request"
	codeInvalidPoints    = "invalid_points"
	codeInvalidBudget    = "invalid_budget"
	codeInvalidMeasure   = "invalid_measure"
	codeUnknownAlgorithm = "unknown_algorithm"
	codeMethodNotAllowed = "method_not_allowed"
	codeBodyTooLarge     = "body_too_large"
	codeTooManyPoints    = "too_many_points"
	codeOverloaded       = "overloaded"
	codeTimeout          = "timeout"
	codeInternal         = "internal"
)

// modeExact is every simplify response's "mode" field: policy decisions
// are the exact forward's on every request.
const modeExact = "exact"

// Server routes simplification requests to registered algorithms.
type Server struct {
	mux        *http.ServeMux
	cfg        Config
	policies   map[string]*core.Trained // lower-case name -> policy
	simp       *policyPools
	batchMet   *batchMetricsSet
	boundUnmet *obs.Counter
	repairMet  *repairMetrics
	streams    *streamManager
	fleets     *fleetManager
}

// NewWith creates a server with the given trained policies registered
// under their paper names (e.g. "rlts+") and the hardening of cfg; the
// zero Config gives the defaults. The heuristic baselines are always
// available.
func NewWith(policies []*core.Trained, cfg Config) *Server {
	s := &Server{
		mux:      http.NewServeMux(),
		cfg:      cfg.normalized(),
		policies: make(map[string]*core.Trained),
	}
	for _, p := range policies {
		s.policies[policyKey(p.Opts.Name(), p.Opts.Measure)] = p
	}
	s.simp = newPolicyPools(s.cfg.Metrics)
	s.boundUnmet = s.cfg.Metrics.Counter("rlts_bound_unmet_total",
		"Error-bounded responses whose oracle-re-scored error exceeded the requested bound")
	s.repairMet = newRepairMetrics(s.cfg.Metrics)
	s.streams = newStreamManager(s.cfg)
	s.fleets = newFleetManager(s.cfg)
	s.batchMet = newBatchMetricsSet(s.cfg.Metrics)
	s.startFleetJanitor()
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.Handle("/metrics", s.cfg.Metrics.Handler())
	for path, ms := range s.routes() {
		s.mux.Handle(path, ms)
	}
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// routes maps each API path pattern to the handlers of its methods.
func (s *Server) routes() map[string]methods {
	return map[string]methods{
		"/v1/algorithms":           {http.MethodGet: s.handleAlgorithms},
		"/v1/simplify":             {http.MethodPost: s.handleSimplify},
		"/v1/simplify/batch":       {http.MethodPost: s.handleSimplifyBatch},
		"/v1/stats":                {http.MethodPost: s.handleStats},
		"/v1/stream":               {http.MethodPost: s.handleStreamCreate, http.MethodGet: s.handleStreamList},
		"/v1/stream/{id}":          {http.MethodGet: s.handleStreamSnapshot, http.MethodDelete: s.handleStreamClose},
		"/v1/stream/{id}/points":   {http.MethodPost: s.handleStreamPush},
		"/v1/fleet":                {http.MethodPost: s.handleFleetCreate, http.MethodGet: s.handleFleetList},
		"/v1/fleet/{id}":           {http.MethodGet: s.handleFleetGet, http.MethodDelete: s.handleFleetDelete},
		"/v1/fleet/{id}/attach":    {http.MethodPost: s.handleFleetAttach},
		"/v1/fleet/{id}/detach":    {http.MethodPost: s.handleFleetDetach},
		"/v1/fleet/{id}/rebalance": {http.MethodPost: s.handleFleetRebalance},
	}
}

// Handler returns the http.Handler for the service, wrapped in the
// hardening and instrumentation middleware (request ids, metrics, panic
// recovery, load shedding, per-request deadlines).
func (s *Server) Handler() http.Handler { return Harden(s.mux, s.cfg) }

// methods routes one path by request method. Any method the path does
// not serve gets the typed 405 with the Allow header RFC 9110 requires,
// listing the methods it does.
type methods map[string]http.HandlerFunc

func (ms methods) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := ms[r.Method]; ok {
		h(w, r)
		return
	}
	allow := make([]string, 0, len(ms))
	for m := range ms {
		allow = append(allow, m)
	}
	sort.Strings(allow)
	list := strings.Join(allow, ", ")
	w.Header().Set("Allow", list)
	httpError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "method %s not allowed; use %s", r.Method, list)
}

// Close releases background resources (the streaming session janitor
// and the fleet rebalancer). The HTTP side needs no teardown; Close
// exists so long-lived embedders and tests do not leak the goroutines.
func (s *Server) Close() {
	s.streams.stop()
	s.fleets.shutdown()
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	var names []string
	for _, b := range baseline.All {
		names = append(names, b.Names[0])
	}
	for k := range s.policies {
		names = append(names, k)
	}
	sort.Strings(names)
	writeJSON(w, map[string]interface{}{"algorithms": names})
}

// simplifyRequest is the wire format of POST /v1/simplify. Exactly one
// of w/ratio (Min-Error: fixed budget, smallest error) or bound
// (Min-Size: fixed error, smallest output) may be set; see bounded.go
// for the bound mode.
type simplifyRequest struct {
	Algorithm string        `json:"algorithm"`
	Measure   string        `json:"measure"`
	W         int           `json:"w"`
	Ratio     float64       `json:"ratio"`
	Bound     *float64      `json:"bound,omitempty"`
	Repair    *repairParams `json:"repair,omitempty"` // opt-in dirty-input repair (see repair.go)
	Points    [][3]float64  `json:"points"`
}

func (r *simplifyRequest) bodyFields() []bodyField {
	return []bodyField{
		{"algorithm", &r.Algorithm}, {"measure", &r.Measure}, {"w", &r.W}, {"ratio", &r.Ratio},
		{"bound", &r.Bound}, {"repair", &r.Repair}, {"points", &r.Points},
	}
}

// pointsRequest is the wire format of POST /v1/stats and of a stream
// push.
type pointsRequest struct {
	Points [][3]float64 `json:"points"`
}

func (r *pointsRequest) bodyFields() []bodyField {
	return []bodyField{{"points", &r.Points}}
}

type simplifyResponse struct {
	Algorithm string            `json:"algorithm"`
	Mode      string            `json:"mode"` // always modeExact
	Kept      int               `json:"kept"`
	Of        int               `json:"of"`
	Error     float64           `json:"error"`
	Bound     *float64          `json:"bound,omitempty"`     // echo of the requested bound
	BoundMet  *bool             `json:"bound_met,omitempty"` // re-scored by the exact oracle
	Repair    *repairReportJSON `json:"repair,omitempty"`    // per-defect repair accounting
	Points    [][3]float64      `json:"points"`
}

// ingest turns a request's raw points into a trajectory: the MaxPoints
// cap, then strict validation, or the repair pipeline when the request
// opted in. It is the one ingest path of /v1/simplify, /v1/stats and
// every batch item, so a defect gets the same code and message, and the
// same rlts_ingest_rejects_total increment, on each. The repair report
// is nil without repair.
func (s *Server) ingest(points [][3]float64, repair *repairParams) (traj.Trajectory, *repairReportJSON, *apiError) {
	if s.cfg.MaxPoints > 0 && len(points) > s.cfg.MaxPoints {
		return nil, nil, apiErrorf(http.StatusRequestEntityTooLarge, codeTooManyPoints,
			"trajectory has %d points, limit is %d", len(points), s.cfg.MaxPoints)
	}
	if repair == nil {
		t, err := traj.FromPoints(points)
		if err != nil {
			code := pointsErrorCode(err)
			s.repairMet.reject(code)
			return nil, nil, apiErrorf(http.StatusBadRequest, code, "invalid trajectory: %v", err)
		}
		return t, nil, nil
	}
	// Repair is total: its only failure is fewer than two surviving points.
	t, rep, err := traj.Repair(points, repair.config())
	if err != nil {
		s.repairMet.reject(codePointsTooShort)
		return nil, nil, apiErrorf(http.StatusBadRequest, codePointsTooShort, "repair: %v", err)
	}
	s.repairMet.observe(rep)
	return t, reportJSON(rep), nil
}

// parseMeasure reads a request's measure field; empty means SED.
func parseMeasure(name string) (errm.Measure, *apiError) {
	if name == "" {
		return errm.SED, nil
	}
	m, err := errm.Parse(name)
	if err != nil {
		return 0, apiErrorf(http.StatusBadRequest, codeInvalidMeasure, "%v", err)
	}
	return m, nil
}

// policyKey is a policy's registry key: "algorithm/measure", lower-case.
func policyKey(algo string, m errm.Measure) string {
	return strings.ToLower(algo + "/" + m.String())
}

// policy looks up the registered policy serving algo under m (nil when
// none does).
func (s *Server) policy(algo string, m errm.Measure) *core.Trained {
	return s.policies[policyKey(algo, m)]
}

// wirePoints renders t's kept points in the [x, y, t] wire form.
func wirePoints(t traj.Trajectory, kept []int) [][3]float64 {
	out := make([][3]float64, 0, len(kept))
	for _, ix := range kept {
		p := t[ix]
		out = append(out, [3]float64{p.X, p.Y, p.T})
	}
	return out
}

// resolveBudget turns a w/ratio pair into the storage budget for an
// n-point trajectory. It is the one budget rule of every Min-Error
// route: w and ratio are mutually exclusive (a conflicting pair used to
// be resolved silently in w's favor; the caller meant something, and
// guessing which half hides bugs), w must be >= 2, ratio defaults to
// 0.1 and must lie in (0, 1), and a ratio budget never falls below 2.
// Each caller maps the error to its own shape: a typed 400 on
// /v1/simplify, an inline item failure on the batch route.
func resolveBudget(w int, ratio float64, n int) (int, error) {
	if w != 0 {
		if ratio != 0 {
			return 0, fmt.Errorf("w (%d) and ratio (%g) are mutually exclusive; send one", w, ratio)
		}
		if w < 2 {
			return 0, fmt.Errorf("w must be >= 2, got %d", w)
		}
		return w, nil
	}
	if ratio == 0 {
		ratio = 0.1 // default budget: keep 10%
	}
	if ratio < 0 || ratio >= 1 {
		return 0, fmt.Errorf("ratio must be in (0, 1), got %g", ratio)
	}
	return max(int(ratio*float64(n)), 2), nil
}

// handleSimplify answers POST /v1/simplify in both modes, Min-Error
// (w/ratio) and Min-Size (bound, see bounded.go), and builds the
// response for both in one place, so every answer carries the repair
// report and the exact re-scored error alike.
func (s *Server) handleSimplify(w http.ResponseWriter, r *http.Request) {
	var req simplifyRequest
	if !decodeBody(w, r, &req) {
		return
	}
	t, repairRep, aerr := s.ingest(req.Points, req.Repair)
	if aerr != nil {
		aerr.write(w)
		return
	}
	m, aerr := parseMeasure(req.Measure)
	if aerr != nil {
		aerr.write(w)
		return
	}
	algo := strings.ToLower(req.Algorithm)
	resp := simplifyResponse{Mode: modeExact, Of: len(t), Bound: req.Bound, Repair: repairRep}
	var kept []int
	var err error
	if req.Bound != nil {
		if berr := checkBound(&req); berr != nil {
			httpError(w, http.StatusBadRequest, codeInvalidBudget, "%v", berr)
			return
		}
		resp.Algorithm, kept, err = s.runBounded(r.Context(), algo, t, *req.Bound, m)
	} else {
		b, berr := resolveBudget(req.W, req.Ratio, len(t))
		if berr != nil {
			httpError(w, http.StatusBadRequest, codeInvalidBudget, "%v", berr)
			return
		}
		resp.Algorithm, kept, err = s.run(r.Context(), algo, t, b, m)
	}
	if err != nil {
		writeRunError(w, err)
		return
	}
	resp.Kept = len(kept)
	resp.Error = errm.Error(m, t, kept)
	core.ObserveErrorIn(s.cfg.Metrics, m, resp.Error)
	if req.Bound != nil {
		met := resp.Error <= *req.Bound
		resp.BoundMet = &met
		s.cfg.Metrics.Counter("rlts_bound_requests_total",
			"Error-bounded simplify requests served, by backend algorithm",
			obs.L("algorithm", resp.Algorithm)).Inc()
		if !met {
			s.boundUnmet.Inc()
		}
	}
	resp.Points = wirePoints(t, kept)
	writeJSON(w, &resp)
}

// writeRunError maps a simplification failure to its transport shape:
// deadline expiry becomes 504, client cancellation is left unanswered
// (the connection is gone), and anything else is a 400.
func writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, codeTimeout, "request deadline exceeded")
	case errors.Is(err, context.Canceled):
		// The client went away; nothing useful can be written.
	default:
		httpError(w, http.StatusBadRequest, codeUnknownAlgorithm, "%v", err)
	}
}

// run dispatches to a policy or a baseline; an empty name means
// Bottom-Up. Policies execute on an exclusive pooled clone (the
// registered instance's forward scratch is not concurrent-safe under
// MaxConcurrent-way parallelism). The context cancels the policy scan
// mid-trajectory; the heuristic baselines run to completion (they are
// bounded by MaxPoints, and bellman additionally by its own size cap).
func (s *Server) run(ctx context.Context, algo string, t traj.Trajectory, w int, m errm.Measure) (string, []int, error) {
	if p := s.policy(algo, m); p != nil {
		c := s.simp.get(p)
		kept, err := c.SimplifyGreedyCtx(ctx, t, w)
		s.simp.put(p, c)
		return p.Opts.Name(), kept, err
	}
	if algo == "" {
		algo = "bottom-up"
	}
	b := baseline.Lookup(algo)
	if b == nil {
		return "", nil, fmt.Errorf("server: unknown algorithm %q (policies need a matching measure)", algo)
	}
	if b.Name == "Bellman" && len(t) > 2000 {
		return "", nil, fmt.Errorf("server: bellman is cubic; refusing %d points (max 2000)", len(t))
	}
	kept, err := b.Run(t, w, m)
	return b.Name, kept, err
}

type statsResponse struct {
	Points      int     `json:"points"`
	Duration    float64 `json:"duration_s"`
	PathLength  float64 `json:"path_length_m"`
	AvgGap      float64 `json:"avg_gap_s"`
	AvgDistance float64 `json:"avg_distance_m"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var req pointsRequest
	if !decodeBody(w, r, &req) {
		return
	}
	t, _, aerr := s.ingest(req.Points, nil)
	if aerr != nil {
		aerr.write(w)
		return
	}
	st := traj.Summarize([]traj.Trajectory{t})
	writeJSON(w, &statsResponse{
		Points:      t.Len(),
		Duration:    t.Duration(),
		PathLength:  t.PathLength(),
		AvgGap:      st.AvgSampleRate,
		AvgDistance: st.AvgDistance,
	})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Too late for a status change; the connection will just break.
		return
	}
}

// httpError writes the typed JSON error shape: a human-readable message
// plus a stable machine-readable code.
func httpError(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	apiErrorf(status, code, format, args...).write(w)
}

// apiError is a failure not yet written: the status, code and message of
// a typed error, returned by helpers that have no ResponseWriter in hand
// (ingest, acquireSession, the fleet rebalancer).
type apiError struct {
	status int
	code   string
	msg    string
}

func apiErrorf(status int, code, format string, args ...interface{}) *apiError {
	return &apiError{status: status, code: code, msg: fmt.Sprintf(format, args...)}
}

// write answers the request with the error.
func (e *apiError) write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.status)
	json.NewEncoder(w).Encode(map[string]string{"error": e.msg, "code": e.code})
}
