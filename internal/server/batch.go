package server

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/obs"
	"rlts/internal/traj"
)

// POST /v1/simplify/batch — bulk simplification. One request carries many
// trajectories; the server splits them into shards of BatchWidth items
// and runs up to BatchWorkers shards at once, each through a
// core.BatchEngine over a policy clone checked out of the same pools
// the single route uses. Items fail
// independently: a malformed trajectory yields an inline per-item error
// while its neighbours still simplify. Like POST /v1/simplify, policies
// run greedy (argmax) inference, so results are deterministic and
// independent of sharding and worker scheduling.
//
// Request:
//
//	{"algorithm": "rlts+", "measure": "SED", "w": 50,   // or "ratio"
//	 "items": [{"points": [[x, y, t], ...], "w": 30},   // per-item override
//	           {"points": ...}, ...]}
//
// Response (one entry per item, in order):
//
//	{"algorithm": "RLTS+", "failed": 1,
//	 "items": [{"kept": 30, "of": 500, "error": 3.2, "points": [...]},
//	           {"failure": {"error": "...", "code": "invalid_points"}}]}

// codeTooManyItems is returned (413) when a batch exceeds
// Config.MaxBatchItems.
const codeTooManyItems = "too_many_items"

// batchItemRequest is one trajectory of a batch request. W and Ratio,
// when set, override the request-level budget for this item.
type batchItemRequest struct {
	Points [][3]float64 `json:"points"`
	W      int          `json:"w,omitempty"`
	Ratio  float64      `json:"ratio,omitempty"`
}

// batchRequest is the wire format of POST /v1/simplify/batch.
type batchRequest struct {
	Algorithm string             `json:"algorithm"`
	Measure   string             `json:"measure"`
	W         int                `json:"w"`
	Ratio     float64            `json:"ratio"`
	Repair    *repairParams      `json:"repair,omitempty"` // opt-in dirty-input repair, applied per item
	Items     []batchItemRequest `json:"items"`
}

// itemFailure is the inline error shape of one failed batch item,
// mirroring the top-level {"error", "code"} contract.
type itemFailure struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// batchItemResult is one item's outcome: the simplification fields on
// success, Failure alone otherwise. Error is a pointer so a perfect 0.0
// simplification error still serializes.
type batchItemResult struct {
	Kept    int               `json:"kept,omitempty"`
	Of      int               `json:"of,omitempty"`
	Error   *float64          `json:"error,omitempty"`
	Repair  *repairReportJSON `json:"repair,omitempty"`
	Points  [][3]float64      `json:"points,omitempty"`
	Failure *itemFailure      `json:"failure,omitempty"`
}

type batchResponse struct {
	Algorithm string            `json:"algorithm"`
	Mode      string            `json:"mode"` // "exact" or "fast" — the kernels that ran
	Failed    int               `json:"failed"`
	Items     []batchItemResult `json:"items"`
}

// batchMetricsSet holds the rlts_batch_* series for one registry.
type batchMetricsSet struct {
	requests *obs.Counter
	items    *obs.Counter
	failures *obs.Counter
	shards   *obs.Counter
	size     *obs.Histogram
}

func newBatchMetricsSet(reg *obs.Registry) *batchMetricsSet {
	return &batchMetricsSet{
		requests: reg.Counter("rlts_batch_requests_total",
			"Accepted POST /v1/simplify/batch requests"),
		items: reg.Counter("rlts_batch_items_total",
			"Trajectories received across batch requests"),
		failures: reg.Counter("rlts_batch_item_failures_total",
			"Batch items that failed with an inline per-item error"),
		shards: reg.Counter("rlts_batch_shards_total",
			"BatchEngine shard runs executed for batch requests"),
		size: reg.Histogram("rlts_batch_request_items",
			"Batch size distribution (items per request)",
			obs.ExpBuckets(1, 2, 11)),
	}
}

func (s *Server) handleSimplifyBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST only")
		return
	}
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		httpError(w, http.StatusBadRequest, codeBadRequest, "batch request needs at least one item")
		return
	}
	if s.cfg.MaxBatchItems > 0 && len(req.Items) > s.cfg.MaxBatchItems {
		httpError(w, http.StatusRequestEntityTooLarge, codeTooManyItems,
			"batch has %d items, limit is %d (split the request)", len(req.Items), s.cfg.MaxBatchItems)
		return
	}
	m := errm.SED
	if req.Measure != "" {
		var err error
		m, err = errm.Parse(req.Measure)
		if err != nil {
			httpError(w, http.StatusBadRequest, codeInvalidMeasure, "%v", err)
			return
		}
	}
	key := strings.ToLower(req.Algorithm + "/" + m.String())
	p, ok := s.policies[key]
	if !ok {
		httpError(w, http.StatusBadRequest, codeUnknownAlgorithm,
			"batch simplification serves trained policies only; no policy for algorithm %q with measure %s",
			req.Algorithm, m)
		return
	}
	// FastMath opt-in: swap in the fast registry entry. The clone pools
	// key on the *core.Trained pointer, so fast and exact requests draw
	// from disjoint pools and a clone never changes kernels mid-life.
	mode := modeExact
	if fastRequested(r) {
		if fp, ok := s.fast[key]; ok {
			p, mode = fp, modeFast
			s.fastReq.Inc()
		}
	}
	met := s.batchMet
	met.requests.Inc()
	met.items.Add(uint64(len(req.Items)))
	met.size.Observe(float64(len(req.Items)))

	// Validate every item up front; valid ones become engine jobs.
	results := make([]batchItemResult, len(req.Items))
	type job struct {
		item int
		t    traj.Trajectory
	}
	jobs := make([]job, 0, len(req.Items))
	engineItems := make([]core.BatchItem, 0, len(req.Items))
	for i := range req.Items {
		it := &req.Items[i]
		if s.cfg.MaxPoints > 0 && len(it.Points) > s.cfg.MaxPoints {
			results[i].Failure = &itemFailure{
				Error: errFmt("trajectory has %d points, limit is %d", len(it.Points), s.cfg.MaxPoints),
				Code:  codeTooManyPoints,
			}
			continue
		}
		var t traj.Trajectory
		var err error
		if req.Repair != nil {
			var rep traj.RepairReport
			t, rep, err = traj.Repair(it.Points, req.Repair.config())
			if err != nil {
				s.repairMet.reject(codePointsTooShort)
				results[i].Failure = &itemFailure{Error: errFmt("repair: %v", err), Code: codePointsTooShort}
				continue
			}
			s.repairMet.observe(rep)
			results[i].Repair = reportJSON(rep)
		} else if t, err = traj.FromPoints(it.Points); err != nil {
			code := pointsErrorCode(err)
			s.repairMet.reject(code)
			results[i].Failure = &itemFailure{Error: errFmt("invalid trajectory: %v", err), Code: code}
			continue
		}
		// An item's own w/ratio, when set, replaces the request default.
		bw, ratio := req.W, req.Ratio
		if it.W != 0 || it.Ratio != 0 {
			bw, ratio = it.W, it.Ratio
		}
		b, err := resolveBudget(bw, ratio, len(t))
		if err != nil {
			results[i].Failure = &itemFailure{Error: err.Error(), Code: codeInvalidBudget}
			continue
		}
		jobs = append(jobs, job{item: i, t: t})
		engineItems = append(engineItems, core.BatchItem{T: t, W: b})
	}

	// Shard the valid items over workers, each on its own policy clone.
	// Each shard writes a disjoint range of engineResults, so no locking
	// is needed.
	engineResults := make([]core.BatchResult, len(engineItems))
	width := s.cfg.BatchWidth
	if width <= 0 || width > len(engineItems) {
		width = len(engineItems)
	}
	if width > 0 {
		ctx := r.Context()
		sem := make(chan struct{}, s.cfg.BatchWorkers)
		var wg sync.WaitGroup
		for lo := 0; lo < len(engineItems); lo += width {
			hi := lo + width
			if hi > len(engineItems) {
				hi = len(engineItems)
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(lo, hi int) {
				defer wg.Done()
				defer func() { <-sem }()
				met.shards.Inc()
				c := s.simp.get(p)
				defer s.simp.put(p, c)
				eng, err := core.NewBatchEngine(c.Policy, c.Opts, false)
				if err != nil {
					for i := lo; i < hi; i++ {
						engineResults[i] = core.BatchResult{Err: err}
					}
					return
				}
				copy(engineResults[lo:hi], eng.RunCtx(ctx, engineItems[lo:hi]))
			}(lo, hi)
		}
		wg.Wait()
		// A request-level deadline or disconnect outranks per-item
		// reporting: answer with the transport shape writeRunError uses.
		if err := ctx.Err(); err != nil {
			writeRunError(w, err)
			return
		}
	}

	failed := 0
	for ji, res := range engineResults {
		i := jobs[ji].item
		if res.Err != nil {
			code := codeBadRequest
			if errors.Is(res.Err, traj.ErrTooShort) {
				code = codeInvalidPoints
			}
			results[i].Failure = &itemFailure{Error: res.Err.Error(), Code: code}
			continue
		}
		t := jobs[ji].t
		e := errm.Error(m, t, res.Kept)
		core.ObserveErrorIn(s.cfg.Metrics, m, e)
		results[i].Kept = len(res.Kept)
		results[i].Of = len(t)
		results[i].Error = &e
		pts := make([][3]float64, 0, len(res.Kept))
		for _, ix := range res.Kept {
			pt := t[ix]
			pts = append(pts, [3]float64{pt.X, pt.Y, pt.T})
		}
		results[i].Points = pts
	}
	for i := range results {
		if results[i].Failure != nil {
			failed++
		}
	}
	met.failures.Add(uint64(failed))
	writeJSON(w, &batchResponse{Algorithm: p.Opts.Name(), Mode: mode, Failed: failed, Items: results})
}

// errFmt is fmt.Sprintf under a name that keeps the failure-construction
// call sites compact.
func errFmt(format string, args ...interface{}) string {
	return fmt.Sprintf(format, args...)
}
