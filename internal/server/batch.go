package server

import (
	"net/http"
	"sync"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/obs"
	"rlts/internal/traj"
)

// POST /v1/simplify/batch — bulk simplification. One request carries many
// trajectories; the server splits them into shards of BatchWidth items
// and runs up to BatchWorkers shards at once. Each shard checks a policy
// clone out of the same pools the single route uses and runs its items
// one after another through SimplifyGreedyCtx, exactly as POST
// /v1/simplify runs one. Items fail independently: a malformed
// trajectory yields an inline per-item error, with the code and message
// /v1/simplify would answer it with, while its neighbours still
// simplify. Policies run greedy (argmax) inference, so results are
// deterministic and independent of sharding and worker scheduling.
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

func (r *batchItemRequest) bodyFields() []bodyField {
	return []bodyField{{"points", &r.Points}, {"w", &r.W}, {"ratio", &r.Ratio}}
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

func (r *batchRequest) bodyFields() []bodyField {
	return []bodyField{
		{"algorithm", &r.Algorithm}, {"measure", &r.Measure}, {"w", &r.W}, {"ratio", &r.Ratio},
		{"repair", &r.Repair}, {"items", &r.Items},
	}
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
	Mode      string            `json:"mode"` // always modeExact
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
			"Shards run for batch requests"),
		size: reg.Histogram("rlts_batch_request_items",
			"Batch size distribution (items per request)",
			obs.ExpBuckets(1, 2, 11)),
	}
}

func (s *Server) handleSimplifyBatch(w http.ResponseWriter, r *http.Request) {
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
	m, aerr := parseMeasure(req.Measure)
	if aerr != nil {
		aerr.write(w)
		return
	}
	p := s.policy(req.Algorithm, m)
	if p == nil {
		httpError(w, http.StatusBadRequest, codeUnknownAlgorithm,
			"batch simplification serves trained policies only; no policy for algorithm %q with measure %s",
			req.Algorithm, m)
		return
	}
	met := s.batchMet
	met.requests.Inc()
	met.items.Add(uint64(len(req.Items)))
	met.size.Observe(float64(len(req.Items)))

	// Ingest every item up front; valid ones become jobs.
	results := make([]batchItemResult, len(req.Items))
	type job struct {
		item int
		t    traj.Trajectory
		w    int
		kept []int
		err  error
	}
	jobs := make([]job, 0, len(req.Items))
	for i := range req.Items {
		it := &req.Items[i]
		t, rep, aerr := s.ingest(it.Points, req.Repair)
		if aerr != nil {
			results[i].Failure = &itemFailure{aerr.msg, aerr.code}
			continue
		}
		results[i].Repair = rep
		// An item's own w/ratio, when set, replaces the request default.
		bw, ratio := req.W, req.Ratio
		if it.W != 0 || it.Ratio != 0 {
			bw, ratio = it.W, it.Ratio
		}
		b, err := resolveBudget(bw, ratio, len(t))
		if err != nil {
			results[i].Failure = &itemFailure{err.Error(), codeInvalidBudget}
			continue
		}
		jobs = append(jobs, job{item: i, t: t, w: b})
	}

	// Shard the jobs over workers, each on its own policy clone. Each
	// shard writes a disjoint range of jobs, so no locking is needed.
	width := s.cfg.BatchWidth
	if width <= 0 || width > len(jobs) {
		width = len(jobs)
	}
	ctx := r.Context()
	sem := make(chan struct{}, s.cfg.BatchWorkers)
	var wg sync.WaitGroup
	for lo := 0; lo < len(jobs); lo += width {
		wg.Add(1)
		sem <- struct{}{}
		go func(shard []job) {
			defer wg.Done()
			defer func() { <-sem }()
			met.shards.Inc()
			c := s.simp.get(p)
			defer s.simp.put(p, c)
			for i := range shard {
				shard[i].kept, shard[i].err = c.SimplifyGreedyCtx(ctx, shard[i].t, shard[i].w)
			}
		}(jobs[lo:min(lo+width, len(jobs))])
	}
	wg.Wait()
	// A request-level deadline or disconnect outranks per-item reporting:
	// answer with the transport shape writeRunError uses.
	if err := ctx.Err(); err != nil && len(jobs) > 0 {
		writeRunError(w, err)
		return
	}

	for _, j := range jobs {
		res := &results[j.item]
		if j.err != nil {
			res.Failure = &itemFailure{j.err.Error(), codeBadRequest}
			continue
		}
		e := errm.Error(m, j.t, j.kept)
		core.ObserveErrorIn(s.cfg.Metrics, m, e)
		res.Kept = len(j.kept)
		res.Of = len(j.t)
		res.Error = &e
		res.Points = wirePoints(j.t, j.kept)
	}
	failed := 0
	for i := range results {
		if results[i].Failure != nil {
			failed++
		}
	}
	met.failures.Add(uint64(failed))
	writeJSON(w, &batchResponse{Algorithm: p.Opts.Name(), Mode: modeExact, Failed: failed, Items: results})
}
