package main

// The -load harness: sustained-load serving benchmark. It stands up the
// real HTTP stack (server.Handler with the full hardening middleware) on
// a loopback listener, loads the embedded pretrained RLTS+ policy, and
// hammers POST /v1/simplify/batch from concurrent clients for a fixed
// wall-clock window — measuring what an operator actually gets:
// trajectories simplified per second end to end (JSON decode, validation,
// engine sharding, JSON encode) and request latency percentiles.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"rlts"
	"rlts/internal/core"
	"rlts/internal/gen"
	"rlts/internal/obs"
	"rlts/internal/server"
	"rlts/pretrained"
)

// loadConfig shapes one sustained-load run. Zero fields take defaults.
type loadConfig struct {
	Duration time.Duration // measurement window (default 10s)
	Conc     int           // concurrent clients (default 4*GOMAXPROCS)
	Items    int           // trajectories per batch request (default 64)
	Points   int           // points per trajectory (default 100)
	Seed     int64
}

func (c loadConfig) normalized() loadConfig {
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Conc <= 0 {
		c.Conc = 4 * runtime.GOMAXPROCS(0)
	}
	if c.Items <= 0 {
		c.Items = 64
	}
	if c.Points <= 0 {
		c.Points = 100
	}
	return c
}

// loadSummary is the published result of one sustained-load run.
type loadSummary struct {
	DurationS       float64 `json:"duration_s"`
	Concurrency     int     `json:"concurrency"`
	ItemsPerRequest int     `json:"items_per_request"`
	PointsPerItem   int     `json:"points_per_item"`
	Requests        int     `json:"requests"`
	Errors          int     `json:"errors"`
	Trajectories    int64   `json:"trajectories"`
	TrajPerSec      float64 `json:"trajectories_per_sec"`
	RequestsPerSec  float64 `json:"requests_per_sec"`
	LatencyP50Ms    float64 `json:"latency_p50_ms"`
	LatencyP90Ms    float64 `json:"latency_p90_ms"`
	LatencyP99Ms    float64 `json:"latency_p99_ms"`
}

// runLoad executes one sustained-load run and returns its summary.
func runLoad(cfg loadConfig) (*loadSummary, error) {
	cfg = cfg.normalized()
	pol, err := pretrained.Load(rlts.SED, rlts.Plus)
	if err != nil {
		return nil, fmt.Errorf("load pretrained policy: %w", err)
	}
	trained := pol.Internal()

	// Own metrics registry so repeated runs in one process don't stack
	// counters; MaxConcurrent is disabled because a capacity benchmark
	// that sheds its own offered load measures the shedder, not the
	// simplifier.
	s := server.NewWith([]*core.Trained{trained}, server.Config{
		Metrics:       obs.NewRegistry(),
		MaxConcurrent: -1,
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, err := loadRequestBody(trained, cfg)
	if err != nil {
		return nil, err
	}
	url := srv.URL + "/v1/simplify/batch"
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Conc,
		MaxIdleConnsPerHost: cfg.Conc,
	}}

	type clientStats struct {
		latencies []time.Duration
		requests  int
		errors    int
	}
	stats := make([]clientStats, cfg.Conc)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Conc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			for time.Now().Before(deadline) {
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					st.errors++
					continue
				}
				_, cerr := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				st.requests++
				if cerr != nil || resp.StatusCode != http.StatusOK {
					st.errors++
					continue
				}
				st.latencies = append(st.latencies, time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sum := &loadSummary{
		DurationS:       round2(elapsed.Seconds()),
		Concurrency:     cfg.Conc,
		ItemsPerRequest: cfg.Items,
		PointsPerItem:   cfg.Points,
	}
	var lats []time.Duration
	for i := range stats {
		sum.Requests += stats[i].requests
		sum.Errors += stats[i].errors
		lats = append(lats, stats[i].latencies...)
	}
	ok := len(lats)
	sum.Trajectories = int64(ok) * int64(cfg.Items)
	sum.TrajPerSec = round2(float64(sum.Trajectories) / elapsed.Seconds())
	sum.RequestsPerSec = round2(float64(ok) / elapsed.Seconds())
	if ok > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) float64 {
			ix := int(p * float64(ok-1))
			return round2(float64(lats[ix].Microseconds()) / 1000)
		}
		sum.LatencyP50Ms = q(0.50)
		sum.LatencyP90Ms = q(0.90)
		sum.LatencyP99Ms = q(0.99)
	}
	return sum, nil
}

// loadRequestBody builds the constant batch request every client posts:
// Items geolife-like trajectories of Points points at the default 0.1
// keep ratio. One body for all requests keeps the generator out of the
// measurement; the server decodes it fresh each time, which is the cost
// being measured.
func loadRequestBody(trained *core.Trained, cfg loadConfig) ([]byte, error) {
	type item struct {
		Points [][3]float64 `json:"points"`
	}
	req := struct {
		Algorithm string  `json:"algorithm"`
		Measure   string  `json:"measure"`
		Ratio     float64 `json:"ratio,omitempty"` // zero = server default 0.1
		Items     []item  `json:"items"`
	}{Algorithm: trained.Opts.Name(), Measure: trained.Opts.Measure.String()}
	r := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Items; i++ {
		t := gen.New(gen.Geolife(), r.Int63()).Trajectory(cfg.Points)
		it := item{Points: make([][3]float64, len(t))}
		for j, p := range t {
			it.Points[j] = [3]float64{p.X, p.Y, p.T}
		}
		req.Items = append(req.Items, it)
	}
	return json.Marshal(&req)
}

// runLoadBench is the `rlts-bench -load` entry point: one sustained run,
// written as JSON to out ("-"/"" = stdout) with a one-line summary on
// stderr.
func runLoadBench(out string, cfg loadConfig) error {
	warnSingleProc()
	sum, err := runLoad(cfg)
	if err != nil {
		return err
	}
	enc, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	fmt.Fprintf(os.Stderr, "sustained load: %.0f trajectories/s, %.0f req/s, p50 %.2fms p99 %.2fms, %d errors\n",
		sum.TrajPerSec, sum.RequestsPerSec, sum.LatencyP50Ms, sum.LatencyP99Ms, sum.Errors)
	if out == "" || out == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}
