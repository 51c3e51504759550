package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/obs"
	"rlts/internal/rl"
	"rlts/internal/traj"
)

// onlineTrained builds an untrained online-variant policy: the session
// API's behavior (budgets, validation, lifecycle) does not depend on
// policy quality, and skipping training keeps these tests fast.
func onlineTrained(t *testing.T) *core.Trained {
	t.Helper()
	opts := core.DefaultOptions(errm.SED, core.Online)
	p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 8, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return &core.Trained{Opts: opts, Policy: p}
}

// streamServer builds a test server with an isolated metrics registry so
// assertions on counters are not polluted by other tests in the process.
func streamServer(t *testing.T, cfg Config) (*httptest.Server, *Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	sv := NewWith([]*core.Trained{onlineTrained(t)}, cfg)
	t.Cleanup(sv.Close)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	return ts, sv, reg
}

func createStream(t *testing.T, url string, body interface{}) string {
	t.Helper()
	resp, raw := post(t, url+"/v1/stream", body)
	if resp.StatusCode != 200 {
		t.Fatalf("create: status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &out); err != nil || out.ID == "" {
		t.Fatalf("create response %q: %v", raw, err)
	}
	return out.ID
}

type snapshotResponse struct {
	Algorithm string       `json:"algorithm"`
	W         int          `json:"w"`
	Seen      int          `json:"seen"`
	Kept      int          `json:"kept"`
	Points    [][3]float64 `json:"points"`
}

func getSnapshot(t *testing.T, url, id string) (*http.Response, snapshotResponse) {
	t.Helper()
	resp, err := http.Get(url + "/v1/stream/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap snapshotResponse
	if resp.StatusCode == 200 {
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
	}
	return resp, snap
}

func deleteStream(t *testing.T, url, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/stream/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestStreamLifecycle is the acceptance scenario: create, push N points
// over several batches, snapshot a valid simplification with |T'| <= W,
// close.
func TestStreamLifecycle(t *testing.T) {
	ts, _, _ := streamServer(t, Config{})
	const w = 10
	id := createStream(t, ts.URL, map[string]interface{}{"measure": "SED", "w": w})

	tr := gen.New(gen.Geolife(), 11).Dataset(1, 200)[0]
	pts := points(tr)
	for off := 0; off < len(pts); off += 50 {
		end := off + 50
		if end > len(pts) {
			end = len(pts)
		}
		resp, raw := post(t, ts.URL+"/v1/stream/"+id+"/points",
			map[string]interface{}{"points": pts[off:end]})
		if resp.StatusCode != 200 {
			t.Fatalf("push: status %d: %s", resp.StatusCode, raw)
		}
		var pr struct {
			Seen     int `json:"seen"`
			Buffered int `json:"buffered"`
		}
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Seen != end {
			t.Errorf("seen = %d after pushing %d", pr.Seen, end)
		}
		if pr.Buffered > w {
			t.Errorf("buffered = %d > W = %d", pr.Buffered, w)
		}
	}

	resp, snap := getSnapshot(t, ts.URL, id)
	if resp.StatusCode != 200 {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	if snap.Seen != len(pts) {
		t.Errorf("snapshot seen = %d, want %d", snap.Seen, len(pts))
	}
	// The default options have no skip actions, so every snapshot point is
	// buffered: |T'| <= W, endpoints preserved, timestamps increasing.
	if len(snap.Points) > w {
		t.Errorf("|T'| = %d > W = %d", len(snap.Points), w)
	}
	if snap.Kept != len(snap.Points) {
		t.Errorf("kept = %d, len(points) = %d", snap.Kept, len(snap.Points))
	}
	if snap.Points[0] != pts[0] {
		t.Error("snapshot does not start at the first pushed point")
	}
	if snap.Points[len(snap.Points)-1] != pts[len(pts)-1] {
		t.Error("snapshot does not end at the last pushed point")
	}
	if _, err := traj.FromPoints(snap.Points); err != nil {
		t.Errorf("snapshot is not a valid trajectory: %v", err)
	}

	if resp := deleteStream(t, ts.URL, id); resp.StatusCode != 200 {
		t.Errorf("close: status %d", resp.StatusCode)
	}
}

func TestStreamPushAfterClose(t *testing.T) {
	ts, _, _ := streamServer(t, Config{})
	id := createStream(t, ts.URL, map[string]interface{}{"w": 5})
	if resp := deleteStream(t, ts.URL, id); resp.StatusCode != 200 {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
	resp, raw := post(t, ts.URL+"/v1/stream/"+id+"/points",
		map[string]interface{}{"points": [][3]float64{{0, 0, 0}, {1, 1, 1}}})
	if resp.StatusCode != 404 {
		t.Fatalf("push after close: status %d, want 404: %s", resp.StatusCode, raw)
	}
	if _, code := errorBody(t, raw); code != codeStreamNotFound {
		t.Errorf("code = %q, want %q", code, codeStreamNotFound)
	}
	// Double close is also a 404.
	if resp := deleteStream(t, ts.URL, id); resp.StatusCode != 404 {
		t.Errorf("double close: status %d, want 404", resp.StatusCode)
	}
}

func TestStreamRejectsDuplicateTimestamps(t *testing.T) {
	ts, _, _ := streamServer(t, Config{})
	id := createStream(t, ts.URL, map[string]interface{}{"w": 5})

	// Duplicate within one push.
	resp, raw := post(t, ts.URL+"/v1/stream/"+id+"/points",
		map[string]interface{}{"points": [][3]float64{{0, 0, 0}, {1, 0, 0}}})
	if resp.StatusCode != 400 {
		t.Fatalf("in-batch duplicate: status %d: %s", resp.StatusCode, raw)
	}
	if _, code := errorBody(t, raw); code != codePointsDuplicate {
		t.Errorf("code = %q, want %q", code, codePointsDuplicate)
	}

	// Duplicate across two pushes: the second push's first point repeats
	// the last accepted timestamp.
	resp, _ = post(t, ts.URL+"/v1/stream/"+id+"/points",
		map[string]interface{}{"points": [][3]float64{{0, 0, 0}, {1, 0, 1}}})
	if resp.StatusCode != 200 {
		t.Fatalf("valid push rejected: status %d", resp.StatusCode)
	}
	resp, raw = post(t, ts.URL+"/v1/stream/"+id+"/points",
		map[string]interface{}{"points": [][3]float64{{2, 0, 1}, {3, 0, 2}}})
	if resp.StatusCode != 400 {
		t.Fatalf("cross-push duplicate: status %d: %s", resp.StatusCode, raw)
	}
	if _, code := errorBody(t, raw); code != codePointsDuplicate {
		t.Errorf("code = %q, want %q", code, codePointsDuplicate)
	}
	// The rejected batch must not have advanced the stream.
	_, snap := getSnapshot(t, ts.URL, id)
	if snap.Seen != 2 {
		t.Errorf("seen = %d after rejected push, want 2", snap.Seen)
	}

	// Non-finite coordinates are rejected by the same validation.
	resp, raw = post(t, ts.URL+"/v1/stream/"+id+"/points",
		map[string]interface{}{"points": [][3]float64{{2, 0, 5}}})
	if resp.StatusCode != 200 {
		t.Fatalf("single-point push rejected: status %d: %s", resp.StatusCode, raw)
	}
	resp, _ = post(t, ts.URL+"/v1/stream/"+id+"/points",
		map[string]interface{}{"points": []interface{}{[]interface{}{"NaN", 0, 6}}})
	if resp.StatusCode != 400 {
		t.Errorf("NaN push: status %d, want 400", resp.StatusCode)
	}
}

// TestStreamSnapshotDeterminism: with sampling off, two sessions fed the
// same points produce byte-identical snapshots, and snapshotting is
// read-only (a second snapshot matches the first).
func TestStreamSnapshotDeterminism(t *testing.T) {
	ts, _, _ := streamServer(t, Config{})
	tr := gen.New(gen.Geolife(), 13).Dataset(1, 150)[0]
	pts := points(tr)

	var snaps [2]snapshotResponse
	for i := range snaps {
		id := createStream(t, ts.URL, map[string]interface{}{"w": 8})
		resp, raw := post(t, ts.URL+"/v1/stream/"+id+"/points", map[string]interface{}{"points": pts})
		if resp.StatusCode != 200 {
			t.Fatalf("push: status %d: %s", resp.StatusCode, raw)
		}
		_, first := getSnapshot(t, ts.URL, id)
		_, again := getSnapshot(t, ts.URL, id)
		if fmt.Sprint(first.Points) != fmt.Sprint(again.Points) {
			t.Fatal("snapshot is not idempotent")
		}
		snaps[i] = first
	}
	if fmt.Sprint(snaps[0].Points) != fmt.Sprint(snaps[1].Points) {
		t.Error("two greedy sessions over the same points diverged")
	}
}

func TestStreamCreateValidation(t *testing.T) {
	ts, _, _ := streamServer(t, Config{})
	cases := []struct {
		name string
		body map[string]interface{}
		code string
	}{
		{"w too small", map[string]interface{}{"w": 1}, codeInvalidBudget},
		{"w missing", map[string]interface{}{}, codeInvalidBudget},
		{"unknown measure", map[string]interface{}{"w": 5, "measure": "XYZ"}, codeInvalidMeasure},
		{"unknown algorithm", map[string]interface{}{"w": 5, "algorithm": "bottom-up"}, codeUnknownAlgorithm},
	}
	for _, c := range cases {
		resp, raw := post(t, ts.URL+"/v1/stream", c.body)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400: %s", c.name, resp.StatusCode, raw)
			continue
		}
		if _, code := errorBody(t, raw); code != c.code {
			t.Errorf("%s: code %q, want %q", c.name, code, c.code)
		}
	}
}

func TestStreamBatchVariantNotStreamable(t *testing.T) {
	reg := obs.NewRegistry()
	opts := core.DefaultOptions(errm.SED, core.Plus)
	p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 8, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	sv := NewWith([]*core.Trained{{Opts: opts, Policy: p}}, Config{Metrics: reg})
	t.Cleanup(sv.Close)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)

	resp, raw := post(t, ts.URL+"/v1/stream", map[string]interface{}{"w": 5, "algorithm": "rlts+"})
	if resp.StatusCode != 400 {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, raw)
	}
	if _, code := errorBody(t, raw); code != codeNotStreamable {
		t.Errorf("code = %q, want %q", code, codeNotStreamable)
	}
}

// TestStreamTTLEviction is the acceptance check: an idle session is gone
// after the TTL and the eviction counter incremented.
func TestStreamTTLEviction(t *testing.T) {
	ts, _, reg := streamServer(t, Config{StreamTTL: 40 * time.Millisecond})
	id := createStream(t, ts.URL, map[string]interface{}{"w": 5})
	post(t, ts.URL+"/v1/stream/"+id+"/points",
		map[string]interface{}{"points": [][3]float64{{0, 0, 0}, {1, 0, 1}}})

	evicted := reg.Counter("rlts_stream_sessions_evicted_total", "")
	active := reg.Gauge("rlts_stream_sessions_active", "")
	deadline := time.Now().Add(3 * time.Second)
	for evicted.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if evicted.Value() == 0 {
		t.Fatal("idle session never evicted")
	}
	if got := active.Value(); got != 0 {
		t.Errorf("active sessions gauge = %g after eviction, want 0", got)
	}
	resp, raw := getRaw(t, ts.URL+"/v1/stream/"+id)
	if resp.StatusCode != 404 {
		t.Errorf("evicted session still answers: status %d: %s", resp.StatusCode, raw)
	}
}

func TestStreamSessionCap(t *testing.T) {
	ts, _, _ := streamServer(t, Config{MaxStreams: 2})
	createStream(t, ts.URL, map[string]interface{}{"w": 5})
	createStream(t, ts.URL, map[string]interface{}{"w": 5})
	resp, raw := post(t, ts.URL+"/v1/stream", map[string]interface{}{"w": 5})
	if resp.StatusCode != 429 {
		t.Fatalf("third create: status %d, want 429: %s", resp.StatusCode, raw)
	}
	if _, code := errorBody(t, raw); code != codeTooManyStreams {
		t.Errorf("code = %q, want %q", code, codeTooManyStreams)
	}
}

func getRaw(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestStreamPushToEvictedSession models the eviction race: a push handler
// that fetched the session from the map before the janitor removed it
// must not be able to push into the dead streamer and report success —
// the closed flag, set under the session mutex during eviction, rejects
// it with 404.
func TestStreamPushToEvictedSession(t *testing.T) {
	// Negative TTL disables the janitor goroutine; its sweep is driven by
	// hand and treats every session as expired.
	ts, sv, reg := streamServer(t, Config{StreamTTL: -1})
	id := createStream(t, ts.URL, map[string]interface{}{"w": 5})

	sm := sv.streams
	sh := sm.shardFor(id)
	sh.mu.Lock()
	sess := sh.sessions[id]
	sh.mu.Unlock()
	if sess == nil {
		t.Fatal("session not in the manager map")
	}
	sm.sweep(time.Now())
	sess.mu.Lock()
	closed := sess.closed
	sess.mu.Unlock()
	if !closed {
		t.Fatal("evicted session not marked closed")
	}
	if got := reg.Counter("rlts_stream_sessions_evicted_total", "").Value(); got != 1 {
		t.Errorf("evicted counter = %d, want 1", got)
	}

	// Model the racing handler's view — it looked the session up before
	// eviction — by restoring the stale map entry, then push and snapshot.
	sh.mu.Lock()
	sh.sessions[id] = sess
	sh.mu.Unlock()
	resp, raw := post(t, ts.URL+"/v1/stream/"+id+"/points",
		map[string]interface{}{"points": [][3]float64{{0, 0, 0}, {1, 0, 1}}})
	if resp.StatusCode != 404 {
		t.Errorf("push to evicted session: status %d, want 404: %s", resp.StatusCode, raw)
	}
	if snapResp, _ := getSnapshot(t, ts.URL, id); snapResp.StatusCode != 404 {
		t.Errorf("snapshot of evicted session: status %d, want 404", snapResp.StatusCode)
	}
	sh.mu.Lock()
	delete(sh.sessions, id)
	sh.mu.Unlock()
}

// TestStreamMetricsInServerRegistry: per-session streamer counters are
// recorded in Config.Metrics (what GET /metrics serves), not silently in
// the process-wide default registry.
func TestStreamMetricsInServerRegistry(t *testing.T) {
	ts, _, reg := streamServer(t, Config{})
	id := createStream(t, ts.URL, map[string]interface{}{"w": 5})
	pts := [][3]float64{{0, 0, 0}, {1, 0, 1}, {2, 0, 2}, {3, 0, 3}}
	if resp, raw := post(t, ts.URL+"/v1/stream/"+id+"/points",
		map[string]interface{}{"points": pts}); resp.StatusCode != 200 {
		t.Fatalf("push: status %d: %s", resp.StatusCode, raw)
	}
	if resp := deleteStream(t, ts.URL, id); resp.StatusCode != 200 {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
	if got := reg.Counter("rlts_stream_points_total", "").Value(); got != uint64(len(pts)) {
		t.Errorf("rlts_stream_points_total in server registry = %d, want %d", got, len(pts))
	}
}
