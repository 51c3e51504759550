package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rlts/internal/core"
	"rlts/internal/gen"
	"rlts/internal/obs"
)

// TestMethodNotAllowedAllow: every route answers a method it does not
// serve (HEAD on the GET-only routes included) with the typed 405 and an
// Allow header listing exactly the methods it does, as RFC 9110
// requires; the methods it does serve never get a 405.
func TestMethodNotAllowedAllow(t *testing.T) {
	s := NewWith(nil, Config{Metrics: obs.NewRegistry()})
	t.Cleanup(s.Close)
	h := s.Handler()
	routes := []struct {
		path  string
		allow []string
	}{
		{"/v1/algorithms", []string{"GET"}},
		{"/v1/simplify", []string{"POST"}},
		{"/v1/simplify/batch", []string{"POST"}},
		{"/v1/stats", []string{"POST"}},
		{"/v1/stream", []string{"GET", "POST"}},
		{"/v1/stream/00ff", []string{"DELETE", "GET"}},
		{"/v1/stream/00ff/points", []string{"POST"}},
		{"/v1/fleet", []string{"GET", "POST"}},
		{"/v1/fleet/00ff", []string{"DELETE", "GET"}},
		{"/v1/fleet/00ff/attach", []string{"POST"}},
		{"/v1/fleet/00ff/detach", []string{"POST"}},
		{"/v1/fleet/00ff/rebalance", []string{"POST"}},
	}
	all := []string{"DELETE", "GET", "HEAD", "OPTIONS", "PATCH", "POST", "PUT"}
	for _, rt := range routes {
		for _, method := range all {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(method, rt.path, strings.NewReader("{}")))
			allowed := false
			for _, a := range rt.allow {
				allowed = allowed || a == method
			}
			if allowed {
				if rr.Code == http.StatusMethodNotAllowed {
					t.Errorf("%s %s: 405 for a served method", method, rt.path)
				}
				continue
			}
			if rr.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, rt.path, rr.Code)
				continue
			}
			got := strings.Split(rr.Header().Get("Allow"), ", ")
			sort.Strings(got)
			if !reflect.DeepEqual(got, rt.allow) {
				t.Errorf("%s %s: Allow %q, want %v", method, rt.path, rr.Header().Get("Allow"), rt.allow)
			}
			msg, code := errorBody(t, rr.Body.Bytes())
			if code != codeMethodNotAllowed {
				t.Errorf("%s %s: code %q, want %q", method, rt.path, code, codeMethodNotAllowed)
			}
			for _, a := range rt.allow {
				if !strings.Contains(msg, a) {
					t.Errorf("%s %s: message %q does not list %s", method, rt.path, msg, a)
				}
			}
		}
	}
}

// TestIngestParity: a point defect gets the same code and message on
// /v1/simplify, on /v1/stats (strict cases) and as a batch item's inline
// failure, and each rejection counts once under its defect label in
// rlts_ingest_rejects_total. The point cap is a size limit, not a
// defect, and counts under none.
func TestIngestParity(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewWith([]*core.Trained{trainSmall(t)}, Config{Metrics: reg, MaxPoints: 50})
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	repair := map[string]interface{}{"window": 4}
	cases := []struct {
		name   string
		pts    [][3]float64
		repair map[string]interface{}
		status int
		code   string
		defect string // "" when no defect counter moves
	}{
		{"too many points", points(gen.New(gen.Truck(), 3).Trajectory(51)), nil,
			http.StatusRequestEntityTooLarge, codeTooManyPoints, ""},
		{"unordered", [][3]float64{{0, 0, 0}, {1, 0, 5}, {2, 0, 2}}, nil,
			http.StatusBadRequest, codePointsUnordered, "unordered"},
		{"duplicate", [][3]float64{{0, 0, 0}, {1, 0, 1}, {2, 0, 1}}, nil,
			http.StatusBadRequest, codePointsDuplicate, "duplicate"},
		{"too short", [][3]float64{{0, 0, 0}}, nil,
			http.StatusBadRequest, codePointsTooShort, "too_short"},
		{"repair leaves one point", [][3]float64{{0, 0, 0}, {0.5, 0, 0}}, repair,
			http.StatusBadRequest, codePointsTooShort, "too_short"},
	}
	defects := []string{"non_finite", "duplicate", "unordered", "too_short", "other"}
	rejects := func() map[string]uint64 {
		out := make(map[string]uint64, len(defects))
		for _, d := range defects {
			out[d] = reg.Counter("rlts_ingest_rejects_total", "", obs.L("defect", d)).Value()
		}
		return out
	}
	// answer is one route's reply to a rejected ingest: the status and
	// the {error, code} body. A batch item's inline failure carries the
	// status the single route answers with; the batch itself succeeds.
	type answer struct {
		status int
		body   itemFailure
	}
	errorAnswer := func(resp *http.Response, raw []byte) answer {
		var e itemFailure
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("error body %s: %v", raw, err)
		}
		return answer{resp.StatusCode, e}
	}
	routes := []struct {
		name   string
		repair bool // serves the repair opt-in
		call   func(pts [][3]float64, repair interface{}, status int) answer
	}{
		{"simplify", true, func(pts [][3]float64, repair interface{}, _ int) answer {
			return errorAnswer(post(t, srv.URL+"/v1/simplify", map[string]interface{}{
				"algorithm": "rlts+", "w": 4, "points": pts, "repair": repair}))
		}},
		{"batch", true, func(pts [][3]float64, repair interface{}, status int) answer {
			resp, raw := post(t, srv.URL+"/v1/simplify/batch", map[string]interface{}{
				"algorithm": "rlts+", "w": 4, "repair": repair,
				"items": []interface{}{map[string]interface{}{"points": pts}}})
			var out batchResponse
			if err := json.Unmarshal(raw, &out); err != nil || resp.StatusCode != http.StatusOK ||
				len(out.Items) != 1 || out.Items[0].Failure == nil {
				t.Fatalf("batch answered %d %s", resp.StatusCode, raw)
			}
			return answer{status, *out.Items[0].Failure}
		}},
		{"stats", false, func(pts [][3]float64, _ interface{}, _ int) answer {
			return errorAnswer(post(t, srv.URL+"/v1/stats", map[string]interface{}{"points": pts}))
		}},
	}
	for _, tc := range cases {
		var first string // the error text every route must repeat
		for _, rt := range routes {
			if tc.repair != nil && !rt.repair {
				continue
			}
			before := rejects()
			got := rt.call(tc.pts, tc.repair, tc.status)
			after := rejects()
			if first == "" {
				first = got.body.Error
			}
			if want := (answer{tc.status, itemFailure{first, tc.code}}); got != want || first == "" {
				t.Errorf("%s on %s: got %d %+v, want %d %+v",
					tc.name, rt.name, got.status, got.body, want.status, want.body)
			}
			for _, d := range defects {
				delta, want := after[d]-before[d], uint64(0)
				if d == tc.defect {
					want = 1
				}
				if delta != want {
					t.Errorf("%s on %s: rejects{defect=%q} moved by %d, want %d",
						tc.name, rt.name, d, delta, want)
				}
			}
		}
	}
}
