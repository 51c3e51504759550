package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/traj"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	// One small trained policy so the policy dispatch path is covered.
	opts := core.DefaultOptions(errm.SED, core.Plus)
	to := core.DefaultTrainOptions()
	to.RL.Episodes = 3
	trained, _, err := core.Train(gen.New(gen.Geolife(), 1).Dataset(5, 60), opts, to)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewWith([]*core.Trained{trained}, Config{}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func points(tr traj.Trajectory) [][3]float64 {
	out := make([][3]float64, tr.Len())
	for i, p := range tr {
		out[i] = [3]float64{p.X, p.Y, p.T}
	}
	return out
}

func post(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status %d", resp.StatusCode)
	}
}

func TestAlgorithmsList(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Algorithms []string `json:"algorithms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(out.Algorithms, ",")
	for _, want := range []string{"bottom-up", "sttrace", "rlts+/sed"} {
		if !strings.Contains(joined, want) {
			t.Errorf("algorithms %v missing %q", out.Algorithms, want)
		}
	}
}

func TestSimplifyWithBaseline(t *testing.T) {
	srv := testServer(t)
	tr := gen.New(gen.Truck(), 2).Trajectory(200)
	resp, body := post(t, srv.URL+"/v1/simplify", map[string]interface{}{
		"algorithm": "bottom-up",
		"measure":   "SED",
		"ratio":     0.1,
		"points":    points(tr),
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out simplifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != "Bottom-Up" || out.Kept > 20 || out.Of != 200 || len(out.Points) != out.Kept {
		t.Errorf("response wrong: %+v", out)
	}
	if out.Error < 0 {
		t.Errorf("negative error %v", out.Error)
	}
}

func TestSimplifyWithPolicy(t *testing.T) {
	srv := testServer(t)
	tr := gen.New(gen.Geolife(), 3).Trajectory(150)
	resp, body := post(t, srv.URL+"/v1/simplify", map[string]interface{}{
		"algorithm": "rlts+",
		"measure":   "SED",
		"w":         20,
		"points":    points(tr),
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out simplifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != "RLTS+" || out.Kept > 20 {
		t.Errorf("response wrong: %+v", out)
	}
}

func TestSimplifyRejects(t *testing.T) {
	srv := testServer(t)
	tr := gen.New(gen.Geolife(), 4).Trajectory(50)
	cases := []map[string]interface{}{
		{"algorithm": "warp", "points": points(tr)},                        // unknown algo
		{"algorithm": "bottom-up", "points": [][3]float64{{0, 0, 0}}},      // too few points
		{"algorithm": "bottom-up", "measure": "XYZ", "points": points(tr)}, // bad measure
		{"algorithm": "rlts+", "measure": "PED", "points": points(tr)},     // policy measure mismatch
	}
	for i, c := range cases {
		resp, _ := post(t, srv.URL+"/v1/simplify", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	// Unordered timestamps rejected.
	resp, _ := post(t, srv.URL+"/v1/simplify", map[string]interface{}{
		"algorithm": "bottom-up",
		"points":    [][3]float64{{0, 0, 5}, {1, 1, 3}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unordered trajectory: status %d", resp.StatusCode)
	}
	// Bad JSON body.
	raw, err := http.Post(srv.URL+"/v1/simplify", "application/json", strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest {
		t.Errorf("broken JSON: status %d", raw.StatusCode)
	}
	// Wrong method.
	get, err := http.Get(srv.URL + "/v1/simplify")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET simplify: status %d", get.StatusCode)
	}
}

func TestBellmanSizeCap(t *testing.T) {
	srv := testServer(t)
	tr := gen.New(gen.Geolife(), 5).Trajectory(2500)
	resp, body := post(t, srv.URL+"/v1/simplify", map[string]interface{}{
		"algorithm": "bellman",
		"ratio":     0.1,
		"points":    points(tr),
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized bellman: status %d (%s)", resp.StatusCode, body)
	}
}

func TestStats(t *testing.T) {
	srv := testServer(t)
	tr := gen.New(gen.Truck(), 6).Trajectory(100)
	resp, body := post(t, srv.URL+"/v1/stats", map[string]interface{}{"points": points(tr)})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out statsResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Points != 100 || out.Duration <= 0 || out.PathLength <= 0 {
		t.Errorf("stats wrong: %+v", out)
	}
}

func TestDefaultAlgorithmAndRatio(t *testing.T) {
	srv := testServer(t)
	tr := gen.New(gen.Geolife(), 7).Trajectory(100)
	// Empty algorithm falls back to Bottom-Up; missing budget to ratio 0.1.
	resp, body := post(t, srv.URL+"/v1/simplify", map[string]interface{}{"points": points(tr)})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out simplifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != "Bottom-Up" || out.Kept != 10 {
		t.Errorf("defaults wrong: %+v", out)
	}
}
