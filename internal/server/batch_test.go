package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/obs"
	"rlts/internal/traj"
)

// trainSmall returns a quickly-trained policy shared by the batch tests.
func trainSmall(t *testing.T) *core.Trained {
	t.Helper()
	opts := core.DefaultOptions(errm.SED, core.Plus)
	to := core.DefaultTrainOptions()
	to.RL.Episodes = 3
	trained, _, err := core.Train(gen.New(gen.Geolife(), 1).Dataset(5, 60), opts, to)
	if err != nil {
		t.Fatal(err)
	}
	return trained
}

func batchServer(t *testing.T, trained *core.Trained, cfg Config) *httptest.Server {
	t.Helper()
	s := NewWith([]*core.Trained{trained}, cfg)
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func batchTrajs(n int) []traj.Trajectory {
	out := make([]traj.Trajectory, n)
	for i := range out {
		out[i] = gen.New(gen.Truck(), int64(40+i)).Trajectory(40 + 13*i)
	}
	return out
}

// TestSimplifyBatchMatchesSingle posts a mixed batch and checks every
// successful item reproduces exactly what POST /v1/simplify returns for
// the same trajectory, while the malformed item fails inline.
func TestSimplifyBatchMatchesSingle(t *testing.T) {
	trained := trainSmall(t)
	srv := batchServer(t, trained, Config{})
	trajs := batchTrajs(7)
	items := make([]map[string]interface{}, 0, len(trajs)+1)
	for _, tr := range trajs {
		items = append(items, map[string]interface{}{"points": points(tr)})
	}
	// Item with a single point: invalid, must fail alone.
	items = append(items, map[string]interface{}{"points": [][3]float64{{1, 2, 3}}})

	out := postBatch(t, srv.URL, map[string]interface{}{
		"algorithm": "rlts+", "measure": "SED", "w": 10, "items": items,
	})
	if out.Algorithm != "RLTS+" || len(out.Items) != len(items) || out.Failed != 1 {
		t.Fatalf("batch response header wrong: algorithm=%q items=%d failed=%d",
			out.Algorithm, len(out.Items), out.Failed)
	}
	last := out.Items[len(out.Items)-1]
	if last.Failure == nil || last.Failure.Code != codePointsTooShort {
		t.Fatalf("invalid item did not fail inline: %+v", last)
	}
	checkMatchesSingle(t, srv.URL, map[string]interface{}{"algorithm": "rlts+", "measure": "SED", "w": 10},
		trajs, out.Items)
}

// TestSimplifyBatchShardingInvariance sends a batch that splits into
// three shards and checks each item is exactly what POST /v1/simplify
// answers for its trajectory: the greedy engine's determinism surfaced
// at the API level, whichever shard and worker ran the item.
func TestSimplifyBatchShardingInvariance(t *testing.T) {
	trained := trainSmall(t)
	reg := obs.NewRegistry()
	srv := batchServer(t, trained, Config{Metrics: reg})
	trajs := make([]traj.Trajectory, 2*DefaultBatchWidth+3)
	items := make([]map[string]interface{}, len(trajs))
	for i := range trajs {
		trajs[i] = gen.New(gen.Truck(), int64(40+i)).Trajectory(30 + i%23)
		items[i] = map[string]interface{}{"points": points(trajs[i])}
	}
	params := map[string]interface{}{"algorithm": "rlts+", "measure": "SED", "ratio": 0.2}
	req := map[string]interface{}{"items": items}
	for k, v := range params {
		req[k] = v
	}
	out := postBatch(t, srv.URL, req)
	if out.Failed != 0 || len(out.Items) != len(trajs) {
		t.Fatalf("batch: %d items, %d failed; want %d, 0", len(out.Items), out.Failed, len(trajs))
	}
	if got := reg.Counter("rlts_batch_shards_total", "").Value(); got != 3 {
		t.Fatalf("batch of %d items ran %d shards, want 3", len(trajs), got)
	}
	checkMatchesSingle(t, srv.URL, params, trajs, out.Items)
}

// postBatch posts a batch request and decodes its 200 answer.
func postBatch(t *testing.T, url string, req map[string]interface{}) batchResponse {
	t.Helper()
	resp, body := post(t, url+"/v1/simplify/batch", req)
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkMatchesSingle checks that item i of a batch answer equals what
// POST /v1/simplify answers for trajs[i] under the same request params
// (algorithm, measure, budget).
func checkMatchesSingle(t *testing.T, url string, params map[string]interface{}, trajs []traj.Trajectory, items []batchItemResult) {
	t.Helper()
	for i, tr := range trajs {
		it := items[i]
		if it.Failure != nil {
			t.Fatalf("item %d failed: %+v", i, it.Failure)
		}
		req := map[string]interface{}{"points": points(tr)}
		for k, v := range params {
			req[k] = v
		}
		resp, sbody := post(t, url+"/v1/simplify", req)
		if resp.StatusCode != 200 {
			t.Fatalf("single status %d: %s", resp.StatusCode, sbody)
		}
		var single simplifyResponse
		if err := json.Unmarshal(sbody, &single); err != nil {
			t.Fatal(err)
		}
		if it.Kept != single.Kept || it.Of != single.Of || !reflect.DeepEqual(it.Points, single.Points) {
			t.Fatalf("item %d diverged from single endpoint: batch kept %d/%d, single %d/%d",
				i, it.Kept, it.Of, single.Kept, single.Of)
		}
		if it.Error == nil || *it.Error != single.Error {
			t.Fatalf("item %d error mismatch: %v vs %v", i, it.Error, single.Error)
		}
	}
}

// TestSimplifyBatchRequestErrors covers the request-level rejections:
// wrong method, empty batch, oversized batch (413), unknown algorithm
// and non-policy algorithms.
func TestSimplifyBatchRequestErrors(t *testing.T) {
	trained := trainSmall(t)
	srv := batchServer(t, trained, Config{})
	tr := batchTrajs(1)[0]
	tooMany := make([]interface{}, maxBatchItems+1)
	for i := range tooMany {
		tooMany[i] = map[string]interface{}{"points": points(tr)}
	}

	resp, err := http.Get(srv.URL + "/v1/simplify/batch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}

	cases := []struct {
		name   string
		body   map[string]interface{}
		status int
		code   string
	}{
		{"empty", map[string]interface{}{"algorithm": "rlts+", "items": []interface{}{}},
			http.StatusBadRequest, codeBadRequest},
		{"too many", map[string]interface{}{"algorithm": "rlts+", "items": tooMany},
			http.StatusRequestEntityTooLarge, codeTooManyItems},
		{"unknown algorithm", map[string]interface{}{"algorithm": "nope", "items": []interface{}{
			map[string]interface{}{"points": points(tr)},
		}}, http.StatusBadRequest, codeUnknownAlgorithm},
		{"baseline not served", map[string]interface{}{"algorithm": "bottom-up", "items": []interface{}{
			map[string]interface{}{"points": points(tr)},
		}}, http.StatusBadRequest, codeUnknownAlgorithm},
		{"bad measure", map[string]interface{}{"algorithm": "rlts+", "measure": "nope", "items": []interface{}{
			map[string]interface{}{"points": points(tr)},
		}}, http.StatusBadRequest, codeInvalidMeasure},
	}
	for _, tc := range cases {
		resp, body := post(t, srv.URL+"/v1/simplify/batch", tc.body)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		var e struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Code != tc.code {
			t.Fatalf("%s: code %q, want %q (err %v)", tc.name, e.Code, tc.code, err)
		}
	}
}

// TestSimplifyBatchPerItemBudgets exercises per-item w/ratio overrides
// and the inline invalid-budget failure.
func TestSimplifyBatchPerItemBudgets(t *testing.T) {
	trained := trainSmall(t)
	srv := batchServer(t, trained, Config{})
	tr := gen.New(gen.Truck(), 77).Trajectory(60)
	resp, body := post(t, srv.URL+"/v1/simplify/batch", map[string]interface{}{
		"algorithm": "rlts+", "w": 20,
		"items": []interface{}{
			map[string]interface{}{"points": points(tr)},             // inherits w=20
			map[string]interface{}{"points": points(tr), "w": 6},     // override
			map[string]interface{}{"points": points(tr), "w": 1},     // invalid override
			map[string]interface{}{"points": points(tr), "ratio": 3}, // invalid ratio
		},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Failed != 2 {
		t.Fatalf("failed = %d, want 2: %s", out.Failed, body)
	}
	if out.Items[0].Kept > 20 || out.Items[0].Kept < 3 {
		t.Fatalf("item 0 kept %d outside budget 20", out.Items[0].Kept)
	}
	if out.Items[1].Kept > 6 {
		t.Fatalf("item 1 kept %d > override budget 6", out.Items[1].Kept)
	}
	for _, i := range []int{2, 3} {
		if out.Items[i].Failure == nil || out.Items[i].Failure.Code != codeInvalidBudget {
			t.Fatalf("item %d: %+v, want invalid_budget failure", i, out.Items[i])
		}
	}
}

// TestSimplifyBatchConcurrentWithMetrics hammers the batch endpoint from
// many goroutines while scraping /metrics — the satellite -race
// requirement — then checks the rlts_batch_* series landed.
func TestSimplifyBatchConcurrentWithMetrics(t *testing.T) {
	trained := trainSmall(t)
	reg := obs.NewRegistry()
	srv := batchServer(t, trained, Config{Metrics: reg})
	trajs := batchTrajs(4)
	items := make([]map[string]interface{}, 0, len(trajs))
	for _, tr := range trajs {
		items = append(items, map[string]interface{}{"points": points(tr)})
	}
	req := map[string]interface{}{"algorithm": "rlts+", "ratio": 0.2, "items": items}

	const posters, scrapes = 8, 5
	var wg sync.WaitGroup
	errc := make(chan error, posters+scrapes)
	for i := 0; i < posters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, srv.URL+"/v1/simplify/batch", req)
			if resp.StatusCode != 200 {
				errc <- fmt.Errorf("batch status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	for i := 0; i < scrapes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				errc <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errc <- fmt.Errorf("metrics status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"rlts_batch_requests_total 8",
		"rlts_batch_items_total 32",
		"rlts_batch_shards_total",
		"rlts_batch_request_items",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics scrape missing %q", want)
		}
	}
}
