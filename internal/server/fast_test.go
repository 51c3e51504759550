package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"rlts/internal/gen"
	"rlts/internal/obs"
)

// TestSimplifyFastMode: ?fast=1 on POST /v1/simplify, once an opt-in
// approximate mode, is accepted and changes nothing — the answer is
// byte-identical to the plain request's and reports mode "exact".
func TestSimplifyFastMode(t *testing.T) {
	trained := trainSmall(t)
	srv := batchServer(t, trained, Config{Metrics: obs.NewRegistry()})
	tr := gen.New(gen.Truck(), 99).Trajectory(80)
	req := map[string]interface{}{
		"algorithm": "rlts+", "measure": "SED", "w": 12, "points": points(tr),
	}

	resp, exact := post(t, srv.URL+"/v1/simplify", req)
	if resp.StatusCode != 200 {
		t.Fatalf("exact status %d: %s", resp.StatusCode, exact)
	}
	var out simplifyResponse
	if err := json.Unmarshal(exact, &out); err != nil {
		t.Fatal(err)
	}
	if out.Mode != modeExact {
		t.Fatalf("plain request mode = %q, want %q", out.Mode, modeExact)
	}

	resp, fast := post(t, srv.URL+"/v1/simplify?fast=1", req)
	if resp.StatusCode != 200 {
		t.Fatalf("?fast=1 status %d: %s", resp.StatusCode, fast)
	}
	if !bytes.Equal(fast, exact) {
		t.Fatalf("?fast=1 body differs from the plain request's:\n%s\nvs\n%s", fast, exact)
	}
}

// TestSimplifyBatchFastMode: the batch endpoint treats ?fast=true the
// same way — the body is byte-identical to the plain batch's.
func TestSimplifyBatchFastMode(t *testing.T) {
	trained := trainSmall(t)
	srv := batchServer(t, trained, Config{Metrics: obs.NewRegistry()})
	items := make([]map[string]interface{}, 0, 6)
	for _, tr := range batchTrajs(6) {
		items = append(items, map[string]interface{}{"points": points(tr)})
	}
	req := map[string]interface{}{
		"algorithm": "rlts+", "measure": "SED", "w": 10, "items": items,
	}

	resp, exact := post(t, srv.URL+"/v1/simplify/batch", req)
	if resp.StatusCode != 200 {
		t.Fatalf("batch status %d: %s", resp.StatusCode, exact)
	}
	var out batchResponse
	if err := json.Unmarshal(exact, &out); err != nil {
		t.Fatal(err)
	}
	if out.Mode != modeExact || out.Failed != 0 {
		t.Fatalf("batch mode %q, %d failed; want %q, 0", out.Mode, out.Failed, modeExact)
	}
	resp, fast := post(t, srv.URL+"/v1/simplify/batch?fast=true", req)
	if resp.StatusCode != 200 {
		t.Fatalf("?fast=true status %d: %s", resp.StatusCode, fast)
	}
	if !bytes.Equal(fast, exact) {
		t.Fatalf("?fast=true batch body differs from the plain batch's")
	}
}

// TestFastModeEdges pins ?fast=1 on a heuristic baseline, which never
// had a fast variant: the answer reports mode "exact".
func TestFastModeEdges(t *testing.T) {
	trained := trainSmall(t)
	srv := batchServer(t, trained, Config{Metrics: obs.NewRegistry()})
	tr := gen.New(gen.Truck(), 7).Trajectory(50)

	resp, body := post(t, srv.URL+"/v1/simplify?fast=1", map[string]interface{}{
		"algorithm": "bottom-up", "measure": "SED", "w": 10, "points": points(tr),
	})
	if resp.StatusCode != 200 {
		t.Fatalf("bottom-up status %d: %s", resp.StatusCode, body)
	}
	var out simplifyResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Mode != modeExact {
		t.Fatalf("bottom-up under ?fast=1: mode = %q, want %q", out.Mode, modeExact)
	}
}
