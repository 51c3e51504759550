package server

import (
	"encoding/json"
	"testing"

	"rlts/internal/gen"
	"rlts/internal/traj"
)

func postBounded(t *testing.T, url string, body map[string]interface{}) (int, simplifyResponse, map[string]string) {
	t.Helper()
	resp, raw := post(t, url+"/v1/simplify", body)
	if resp.StatusCode != 200 {
		var e map[string]string
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("status %d, unparseable error body %q", resp.StatusCode, raw)
		}
		return resp.StatusCode, simplifyResponse{}, e
	}
	var out simplifyResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, nil
}

func boundedTraj() traj.Trajectory {
	return gen.New(gen.Geolife(), 42).Trajectory(120)
}

// requireBoundedOK asserts a 200 bounded response is internally honest:
// bound echoed, bound_met true, and the returned point count matching
// "kept". The oracle re-score itself happens server-side; the pillar in
// internal/check proves the algorithms, this proves the wiring.
func requireBoundedOK(t *testing.T, status int, out simplifyResponse, e map[string]string, wantAlgo string, bound float64) {
	t.Helper()
	if status != 200 {
		t.Fatalf("status %d: %v", status, e)
	}
	if out.Algorithm != wantAlgo {
		t.Errorf("algorithm %q, want %q", out.Algorithm, wantAlgo)
	}
	if out.Bound == nil || *out.Bound != bound {
		t.Errorf("bound not echoed: %v", out.Bound)
	}
	if out.BoundMet == nil || !*out.BoundMet {
		t.Errorf("bound_met = %v, want true (error %v, bound %v)", out.BoundMet, out.Error, bound)
	}
	if out.Error > bound {
		t.Errorf("reported error %v exceeds bound %v", out.Error, bound)
	}
	if len(out.Points) != out.Kept {
		t.Errorf("kept %d but %d points returned", out.Kept, len(out.Points))
	}
}

func TestBoundedRoutesByMeasure(t *testing.T) {
	srv := testServer(t)
	pts := points(boundedTraj())
	for _, tc := range []struct {
		measure, wantAlgo string
	}{
		{"SED", "CISED"},
		{"PED", "OPERB"},
		{"DAD", "Min-Size(Greedy)"}, // no DAD policy registered
		{"SAD", "Min-Size(Greedy)"},
	} {
		status, out, e := postBounded(t, srv.URL, map[string]interface{}{
			"measure": tc.measure, "bound": 5.0, "points": pts,
		})
		requireBoundedOK(t, status, out, e, tc.wantAlgo, 5.0)
		if out.Kept >= len(pts) && tc.measure != "DAD" && tc.measure != "SAD" {
			t.Errorf("%s: no compression at bound 5 (kept %d of %d)", tc.measure, out.Kept, len(pts))
		}
	}
}

func TestBoundedPolicySearch(t *testing.T) {
	// Naming the registered policy runs the Min-Size search over it.
	srv := testServer(t)
	pts := points(boundedTraj())
	status, out, e := postBounded(t, srv.URL, map[string]interface{}{
		"algorithm": "rlts+", "measure": "SED", "bound": 5.0, "points": pts,
	})
	requireBoundedOK(t, status, out, e, "Min-Size(RLTS+)", 5.0)
}

func TestBoundedAutoRouting(t *testing.T) {
	srv := testServer(t)
	pts := points(boundedTraj())
	status, out, e := postBounded(t, srv.URL, map[string]interface{}{
		"algorithm": "auto", "measure": "SED", "bound": 5.0, "points": pts,
	})
	if status != 200 {
		t.Fatalf("status %d: %v", status, e)
	}
	// 120 smooth-ish Geolife points: the router picks the one-pass.
	if out.Algorithm != "CISED" && out.Algorithm != "Min-Size(RLTS+)" {
		t.Errorf("auto picked %q", out.Algorithm)
	}
	if out.BoundMet == nil || !*out.BoundMet {
		t.Error("auto route missed the bound")
	}
}

func TestBoundedRejectsInvalidRequests(t *testing.T) {
	srv := testServer(t)
	pts := points(boundedTraj())
	cases := []struct {
		name     string
		body     map[string]interface{}
		wantCode string
	}{
		{"bound with w", map[string]interface{}{"measure": "SED", "bound": 5.0, "w": 10, "points": pts}, "invalid_budget"},
		{"bound with ratio", map[string]interface{}{"measure": "SED", "bound": 5.0, "ratio": 0.2, "points": pts}, "invalid_budget"},
		{"negative bound", map[string]interface{}{"measure": "SED", "bound": -1.0, "points": pts}, "invalid_budget"},
		{"cised under PED", map[string]interface{}{"algorithm": "cised", "measure": "PED", "bound": 5.0, "points": pts}, "unknown_algorithm"},
		{"operb under SED", map[string]interface{}{"algorithm": "operb", "measure": "SED", "bound": 5.0, "points": pts}, "unknown_algorithm"},
		{"unknown backend", map[string]interface{}{"algorithm": "nope", "measure": "SED", "bound": 5.0, "points": pts}, "unknown_algorithm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, e := postBounded(t, srv.URL, tc.body)
			if status != 400 {
				t.Fatalf("status %d, want 400", status)
			}
			if e["code"] != tc.wantCode {
				t.Errorf("code %q, want %q (%s)", e["code"], tc.wantCode, e["error"])
			}
		})
	}
}

func TestBoundedZeroBoundKeepsEverything(t *testing.T) {
	srv := testServer(t)
	tr := boundedTraj()
	status, out, e := postBounded(t, srv.URL, map[string]interface{}{
		"measure": "SED", "bound": 0.0, "points": points(tr),
	})
	requireBoundedOK(t, status, out, e, "CISED", 0)
	if out.Kept != len(tr) {
		t.Errorf("bound 0 kept %d of %d", out.Kept, len(tr))
	}
	if out.Error != 0 {
		t.Errorf("bound 0 error = %v", out.Error)
	}
}

func TestBoundedExplicitOnePass(t *testing.T) {
	srv := testServer(t)
	pts := points(boundedTraj())
	status, out, e := postBounded(t, srv.URL, map[string]interface{}{
		"algorithm": "operb", "measure": "PED", "bound": 3.0, "points": pts,
	})
	requireBoundedOK(t, status, out, e, "OPERB", 3.0)
	status, out, e = postBounded(t, srv.URL, map[string]interface{}{
		"algorithm": "minsize", "measure": "SED", "bound": 3.0, "points": pts,
	})
	requireBoundedOK(t, status, out, e, "Min-Size(RLTS+)", 3.0)
}

func TestBudgetConflictRejected(t *testing.T) {
	// Regression for the non-bounded path: w and ratio together used to
	// silently drop ratio; now the conflict is a typed 400.
	srv := testServer(t)
	pts := points(boundedTraj())
	resp, raw := post(t, srv.URL+"/v1/simplify", map[string]interface{}{
		"algorithm": "bottom-up", "measure": "SED", "w": 10, "ratio": 0.5, "points": pts,
	})
	if resp.StatusCode != 400 {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, raw)
	}
	var e map[string]string
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	if e["code"] != "invalid_budget" {
		t.Errorf("code %q, want invalid_budget", e["code"])
	}
	// Each alone still works.
	for _, body := range []map[string]interface{}{
		{"algorithm": "bottom-up", "w": 10, "points": pts},
		{"algorithm": "bottom-up", "ratio": 0.5, "points": pts},
	} {
		if resp, raw := post(t, srv.URL+"/v1/simplify", body); resp.StatusCode != 200 {
			t.Errorf("lone budget rejected: %d %s", resp.StatusCode, raw)
		}
	}
	// The batch route resolves budgets by the same rule: a conflicting
	// pair, whether an item inherits it from the request or sets it
	// itself, is an inline invalid_budget failure, not a silent w.
	item := func(extra map[string]interface{}) []interface{} {
		it := map[string]interface{}{"points": pts}
		for k, v := range extra {
			it[k] = v
		}
		return []interface{}{it}
	}
	for name, body := range map[string]map[string]interface{}{
		"request": {"algorithm": "rlts+", "w": 10, "ratio": 0.5, "items": item(nil)},
		"item":    {"algorithm": "rlts+", "items": item(map[string]interface{}{"w": 10, "ratio": 0.5})},
	} {
		resp, raw := post(t, srv.URL+"/v1/simplify/batch", body)
		if resp.StatusCode != 200 {
			t.Fatalf("batch %s-level conflict: status %d: %s", name, resp.StatusCode, raw)
		}
		var out batchResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if out.Failed != 1 || out.Items[0].Failure == nil || out.Items[0].Failure.Code != codeInvalidBudget {
			t.Errorf("batch %s-level conflict: %s, want an invalid_budget item failure", name, raw)
		}
	}
}
