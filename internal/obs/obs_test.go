package obs

import (
	"bytes"
	"io"
	"math"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "events")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("inflight", "in-flight")
	g.Set(3)
	g.Inc()
	g.Add(-2.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("route", "/a"))
	b := r.Counter("x_total", "x", L("route", "/a"))
	if a != b {
		t.Error("same name+labels returned different counters")
	}
	other := r.Counter("x_total", "x", L("route", "/b"))
	if a == other {
		t.Error("different labels returned the same counter")
	}
	// Label order must not matter.
	h1 := r.Gauge("y", "y", L("a", "1"), L("b", "2"))
	h2 := r.Gauge("y", "y", L("b", "2"), L("a", "1"))
	if h1 != h2 {
		t.Error("label order changed series identity")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "m")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m_total", "m")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if want := 0.05 + 0.1 + 0.5 + 2 + 100; math.Abs(h.Sum()-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", h.Sum(), want)
	}
	cum := h.cumulative(nil)
	// le=0.1 holds 0.05 and 0.1 (bounds are inclusive), le=1 adds 0.5,
	// le=10 adds 2, +Inf adds 100.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], w)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h", "h", []float64{1, 2})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %g, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

// TestTextRoundTrip is the acceptance check: the encoder's output must be
// parseable Prometheus text format, and the parsed samples must carry the
// exact values that were recorded.
func TestTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "requests", L("route", "/v1/simplify"), L("code", "200")).Add(7)
	r.Counter("req_total", "requests", L("route", "/v1/stats"), L("code", "400")).Add(2)
	r.Gauge("sessions_active", "active sessions").Set(3)
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1}, L("route", "/v1/simplify"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.Gauge("weird", "label with \"quotes\" and \\slashes", L("k", `a"b\c`)).Set(1)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("encoder output does not parse: %v\n%s", err, buf.String())
	}

	checks := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"req_total", map[string]string{"route": "/v1/simplify", "code": "200"}, 7},
		{"req_total", map[string]string{"route": "/v1/stats", "code": "400"}, 2},
		{"sessions_active", nil, 3},
		{"lat_seconds_bucket", map[string]string{"le": "0.1"}, 1},
		{"lat_seconds_bucket", map[string]string{"le": "1"}, 2},
		{"lat_seconds_bucket", map[string]string{"le": "+Inf"}, 3},
		{"lat_seconds_count", nil, 3},
		{"lat_seconds_sum", nil, 5.55},
		{"weird", map[string]string{"k": `a"b\c`}, 1},
	}
	for _, c := range checks {
		got, ok := Find(samples, c.name, c.labels)
		if !ok {
			t.Errorf("%s%v missing from output:\n%s", c.name, c.labels, buf.String())
			continue
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s%v = %g, want %g", c.name, c.labels, got, c.want)
		}
	}

	// Deterministic rendering: a second encode of unchanged state is
	// byte-identical.
	var buf2 bytes.Buffer
	if err := r.WriteText(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("two scrapes of identical state differ")
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "up").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	samples, err := ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := Find(samples, "up_total", nil); !ok || v != 1 {
		t.Errorf("up_total = %g, %v", v, ok)
	}

	resp, err = srv.Client().Post(srv.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("POST status %d, want 405", resp.StatusCode)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Errorf("ExpBuckets[%d] = %g, want %g", i, exp[i], want)
		}
	}
	lin := LinearBuckets(0, 5, 3)
	for i, want := range []float64{0, 5, 10} {
		if lin[i] != want {
			t.Errorf("LinearBuckets[%d] = %g, want %g", i, lin[i], want)
		}
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	log := CommandLogger(&buf, "rlts-test", false, true)
	log.Info("hello", "k", 1)
	out := buf.String()
	for _, want := range []string{`"component":"rlts-test"`, `"msg":"hello"`, `"k":1`} {
		if !strings.Contains(out, want) {
			t.Errorf("log line missing %s: %s", want, out)
		}
	}
	// Debug suppressed unless verbose.
	buf.Reset()
	log.Debug("quiet")
	if buf.Len() != 0 {
		t.Errorf("debug logged at info level: %s", buf.String())
	}
	if CommandLogger(&buf, "x", true, false).Enabled(nil, -4) == false {
		t.Error("verbose logger does not enable debug")
	}
}

// TestWriteTextConcurrentRegistration reproduces the scrape-vs-lazy-
// registration race: the server middleware creates a new labeled series
// on live traffic while /metrics encodes, so WriteText must never iterate
// the live series maps outside the registry lock (doing so is a fatal
// "concurrent map iteration and map write" runtime throw, not a
// recoverable panic).
func TestWriteTextConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "req", L("code", "200")) // family exists up front
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			r.Counter("req_total", "req", L("code", strconv.Itoa(i))).Inc()
			r.Gauge("g_"+strconv.Itoa(i%64), "g").Set(1)
			runtime.Gosched() // force interleaving even on GOMAXPROCS=1
		}
	}()
	for i := 0; i < 500; i++ {
		if err := r.WriteText(io.Discard); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		runtime.Gosched()
	}
	wg.Wait()
}

// TestLabelKeyAmbiguity: two distinct label sets whose raw values join to
// the same string must still be distinct series.
func TestLabelKeyAmbiguity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("amb_total", "amb", L("a", "1"), L("b", "2"))
	b := r.Counter("amb_total", "amb", L("a", `1",b="2`))
	if a == b {
		t.Fatal("distinct label sets aliased to one series")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Errorf("aliased counter: b = %d after incrementing a", b.Value())
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}
