package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rlts"
	"rlts/internal/core"
	"rlts/internal/gen"
	"rlts/internal/obs"
	"rlts/pretrained"
)

// TestMetricsScrape is the acceptance check for the scrape endpoint: run
// real traffic through the hardened server, then GET /metrics and verify
// the output parses as Prometheus text format and carries the expected
// series.
func TestMetricsScrape(t *testing.T) {
	ts, _, _ := streamServer(t, Config{})

	tr := gen.New(gen.Geolife(), 3).Dataset(1, 80)[0]
	resp, raw := post(t, ts.URL+"/v1/simplify",
		map[string]interface{}{"algorithm": "bottom-up", "w": 10, "points": points(tr)})
	if resp.StatusCode != 200 {
		t.Fatalf("simplify: status %d: %s", resp.StatusCode, raw)
	}
	// One 400 so a second code series exists.
	post(t, ts.URL+"/v1/simplify", map[string]interface{}{"w": 10})

	sresp, body := getRaw(t, ts.URL+"/metrics")
	if sresp.StatusCode != 200 {
		t.Fatalf("/metrics: status %d", sresp.StatusCode)
	}
	if ct := sresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	samples, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, body)
	}
	if v, ok := obs.Find(samples, "rlts_http_requests_total",
		map[string]string{"route": "/v1/simplify", "code": "200"}); !ok || v < 1 {
		t.Errorf("requests_total{simplify,200} = %g, %v", v, ok)
	}
	if v, ok := obs.Find(samples, "rlts_http_requests_total",
		map[string]string{"route": "/v1/simplify", "code": "400"}); !ok || v < 1 {
		t.Errorf("requests_total{simplify,400} = %g, %v", v, ok)
	}
	if v, ok := obs.Find(samples, "rlts_http_request_seconds_count",
		map[string]string{"route": "/v1/simplify"}); !ok || v < 2 {
		t.Errorf("request_seconds_count{simplify} = %g, %v", v, ok)
	}
	if v, ok := obs.Find(samples, "rlts_http_request_seconds_bucket",
		map[string]string{"route": "/v1/simplify", "le": "+Inf"}); !ok || v < 2 {
		t.Errorf("request_seconds_bucket{+Inf} = %g, %v", v, ok)
	}
	// The per-measure error distribution recorded by the simplify handler
	// goes to the server's own registry, so the scrape carries it.
	if v, ok := obs.Find(samples, "rlts_simplify_error_count",
		map[string]string{"measure": "SED"}); !ok || v < 1 {
		t.Errorf("rlts_simplify_error_count{SED} = %g, %v", v, ok)
	}
}

func TestRequestIDEchoedAndGenerated(t *testing.T) {
	ts, _, _ := streamServer(t, Config{})

	// Generated when absent: 16 hex chars.
	resp, _ := getRaw(t, ts.URL+"/healthz")
	rid := resp.Header.Get("X-Request-ID")
	if len(rid) != 16 {
		t.Errorf("generated request id %q, want 16 hex chars", rid)
	}

	// Echoed when supplied.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "my-trace-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "my-trace-42" {
		t.Errorf("request id not echoed: %q", got)
	}

	// Oversized ids are replaced, not echoed.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", strings.Repeat("x", 200))
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Errorf("oversized id echoed back: %q", got)
	}
}

func TestRequestIDInLogs(t *testing.T) {
	var logBuf bytes.Buffer
	logger := obs.NewLogger(&logBuf, -8, true) // debug level, JSON
	reg := obs.NewRegistry()
	h := Harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}), Config{Logger: logger, Metrics: reg})
	ts := httptest.NewServer(h)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/simplify", nil)
	req.Header.Set("X-Request-ID", "trace-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(logBuf.String(), `"request_id":"trace-abc-123"`) {
		t.Errorf("slog entry missing request id: %s", logBuf.String())
	}
}

// TestRetryAfterOn504 covers the satellite: deadline responses carry
// Retry-After no matter which layer writes the 504.
func TestRetryAfterOn504(t *testing.T) {
	reg := obs.NewRegistry()
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		writeRunError(w, r.Context().Err())
	})
	h := Harden(slow, Config{RequestTimeout: 20 * time.Millisecond, Metrics: reg})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/simplify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("504 response missing Retry-After")
	}
	if got := newMetricsSet(reg).deadlines.Value(); got != 1 {
		t.Errorf("deadline counter = %d, want 1", got)
	}
}

func TestShedAndInflightMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	blocking := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		w.Write([]byte("done"))
	})
	h := Harden(blocking, Config{MaxConcurrent: 1, RequestTimeout: -1, Metrics: reg})
	ts := httptest.NewServer(h)
	defer ts.Close()

	met := newMetricsSet(reg)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/v1/simplify")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	if got := met.inflight.Value(); got != 1 {
		t.Errorf("inflight = %g with one request running", got)
	}
	resp, err := http.Get(ts.URL + "/v1/simplify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if got := met.shed.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	close(release)
	wg.Wait()
	if got := met.inflight.Value(); got != 0 {
		t.Errorf("inflight = %g after drain, want 0", got)
	}
}

func TestPanicCounter(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	h := Harden(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}), Config{ErrorLog: &logBuf, Metrics: reg})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/simplify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if got := newMetricsSet(reg).panics.Value(); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
}

func TestPprofGating(t *testing.T) {
	// Off by default.
	ts, _, _ := streamServer(t, Config{})
	resp, _ := getRaw(t, ts.URL+"/debug/pprof/")
	if resp.StatusCode == 200 {
		t.Error("pprof reachable without EnablePprof")
	}

	// On when enabled.
	ts2, _, _ := streamServer(t, Config{EnablePprof: true})
	resp2, body := getRaw(t, ts2.URL+"/debug/pprof/cmdline")
	if resp2.StatusCode != 200 {
		t.Errorf("pprof cmdline: status %d: %s", resp2.StatusCode, body)
	}
}

func TestMetricsBypassesShedding(t *testing.T) {
	ts, _, _ := streamServer(t, Config{MaxConcurrent: 1})
	// Saturate the semaphore with a slow streaming push? Simpler: the
	// bypass is path-based, so a scrape succeeds even when MaxConcurrent
	// would otherwise be consumed by this very request chain.
	release := make(chan struct{})
	started := make(chan struct{})
	reg := obs.NewRegistry()
	blocking := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			reg.Handler().ServeHTTP(w, r)
			return
		}
		close(started)
		<-release
	})
	h := Harden(blocking, Config{MaxConcurrent: 1, RequestTimeout: -1, Metrics: reg})
	srv := httptest.NewServer(h)
	defer srv.Close()
	go func() {
		resp, err := http.Get(srv.URL + "/busy")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(release)
	if resp.StatusCode != 200 {
		t.Errorf("/metrics shed while saturated: status %d", resp.StatusCode)
	}
	_ = ts
}

// TestSimplifyCountersInServerRegistry: the run, step and fallback counts
// of the policy runs behind /v1/simplify and /v1/simplify/batch land in
// the server's own registry, the one its /metrics serves, not in
// obs.Default(): one run per single request and one per batch item.
func TestSimplifyCountersInServerRegistry(t *testing.T) {
	pp, err := pretrained.Load(rlts.SED, rlts.Plus)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewWith([]*core.Trained{pp.Internal()}, Config{Metrics: obs.NewRegistry()})
	t.Cleanup(sv.Close)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)

	g := gen.New(gen.Truck(), 5)
	one := g.Trajectory(300)
	resp, raw := post(t, ts.URL+"/v1/simplify",
		map[string]interface{}{"algorithm": "rlts+", "measure": "SED", "w": 30, "points": points(one)})
	if resp.StatusCode != 200 {
		t.Fatalf("simplify: status %d: %s", resp.StatusCode, raw)
	}
	items := []map[string]interface{}{{"points": points(g.Trajectory(200))}, {"points": points(g.Trajectory(250))}}
	resp, raw = post(t, ts.URL+"/v1/simplify/batch",
		map[string]interface{}{"algorithm": "rlts+", "measure": "SED", "w": 20, "items": items})
	if resp.StatusCode != 200 {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, raw)
	}

	_, body := getRaw(t, ts.URL+"/metrics")
	samples, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, body)
	}
	if v, ok := obs.Find(samples, "rlts_simplify_runs_total", nil); !ok || v != 3 {
		t.Errorf("rlts_simplify_runs_total = %g, %v; want 3", v, ok)
	}
	if v, ok := obs.Find(samples, "rlts_simplify_steps_total", nil); !ok || v <= 0 {
		t.Errorf("rlts_simplify_steps_total = %g, %v; want > 0", v, ok)
	}
	if _, ok := obs.Find(samples, "rlts_policy_fallbacks_total", nil); !ok {
		t.Error("no rlts_policy_fallbacks_total series")
	}
}

// TestRouteLabel: every path NewWith registers labels as its own
// pattern, and any other path labels into the fixed set of patterns plus
// "/debug/pprof" and "other", which keeps rlts_http_requests_total
// bounded whatever clients send.
func TestRouteLabel(t *testing.T) {
	s := NewWith(nil, Config{Metrics: obs.NewRegistry()})
	t.Cleanup(s.Close)
	labels := map[string]bool{"/debug/pprof": true, "other": true}
	patterns := []string{"/healthz", "/metrics"}
	for p := range s.routes() {
		patterns = append(patterns, p)
	}
	for _, p := range patterns {
		labels[p] = true
		path := strings.ReplaceAll(p, "{id}", "abc")
		if got := routeLabel(path); got != p {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, p)
		}
	}
	for _, tc := range []struct{ path, want string }{
		{"/v1/stream/a/b/c", "/v1/stream/{id}"},
		{"/v1/fleet/x/y", "/v1/fleet/{id}"},
		{"/debug/pprof/heap", "/debug/pprof"},
		{"/v1/nope", "other"},
		{"/v1/stream/" + strings.Repeat("a", 10<<10), "/v1/stream/{id}"},
		{"/" + strings.Repeat("x", 10<<10), "other"},
		{"", "other"},
	} {
		got := routeLabel(tc.path)
		if got != tc.want || !labels[got] {
			t.Errorf("routeLabel(%.40q) = %q, want %q from the fixed set", tc.path, got, tc.want)
		}
	}
}
