package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rlts"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/obs"
	"rlts/pretrained"
)

// Response golden: the wire bytes of every route, pinned as literal
// digests. Each row is the SHA-256 of "status\nbody" of one request (or,
// for a stream row, of every step of the session's lifecycle in order,
// with the random session id replaced by a fixed token) against a server
// holding the eight embedded policies. A change to any response byte —
// a field, a float digit, a decision, an error message — fails the row
// naming the route. A ?fast=1 request must answer its plain twin's bytes
// exactly: policy decisions are the exact forward's on every request.
func TestGoldenResponses(t *testing.T) {
	tests := []struct {
		Name   string
		Expect string
	}{
		{"algorithms", "20b6ce25af94a56fbbf12429a6b79563f75a625decb94014a2da3a3910a9f546"},
		{"batch", "85ec105ae4c67c4b42e605eefef11b04bd04c50b20d670b2aa4ea14c48e20942"},
		{"simplify/bellman", "1f793d39060d382e2889d0f63a68a95a7674171ba35fb0f18c8f942ee7f2f773"},
		{"simplify/bottom-up", "c0f6917aabdf643fd64fe4c7fff7068a9170cd6ee533c7320d3a9695787aeb12"},
		{"simplify/bound", "8fc7f451cd06483be4ea92874f7065ec5f981ae7920073cc4a9e9c97d8fc84da"},
		{"simplify/repair", "922fc969684092ff7c0695fbecadcee3301a8ad0d10191d7ed1d44761b0466b6"},
		{"simplify/rlts+/DAD", "2c8e8bdedb9a9a97b4d9e633a3b1e2735848e2066d47e8d79b3f8de1d2e78cc5"},
		{"simplify/rlts+/PED", "440761633f7aceef7602e4a8bc17c9fe8107b9971439b16ef32051052541839e"},
		{"simplify/rlts+/SAD", "41467308485b1f3b5dcea2c3d9bce1c6a1329e369bfb6c06c44837f0456821ce"},
		{"simplify/rlts+/SED", "10ecd06f7ce7167196664577049221a5a1b82ce635fe5e656da5bd6ed63567b8"},
		{"simplify/rlts/DAD", "597967e2c3a12634f0a251ec05a233202651beac6eb47c7b659ff0a93e548447"},
		{"simplify/rlts/PED", "9c4a26ce83db3ea6932b80854c4ef864524c167a5b570e2fcf2c645f67c7053f"},
		{"simplify/rlts/SAD", "d9fb6e4e3eac89d19d033c1b8f33b516dc01ae271444d38f310ef88bfea9a61e"},
		{"simplify/rlts/SED", "0d5aab9ad2f60b5d0bc9d8cf246dbf0077eeb81b24e1935d71444559bbcb1590"},
		{"simplify/span-search", "a0dd004c7111bd6a67c1ddc18a786fec32028135fc6e6009e05fd46128ddb7ce"},
		{"simplify/squish", "27f6f28262e03dc3f56849cd74fd25a284f3a4f769044872b96a87dcee1cb47d"},
		{"simplify/squish-e", "1857abaf9351b733b444f7b639777c9f1675e51e7801ed2ea8597dca5cb29f80"},
		{"simplify/sttrace", "5f1d727d4468a434480bdeb05f24fbd5f2e609f549c28a590d3225a20b9abeff"},
		{"simplify/top-down", "f9d1cacb6f65c93f1c49c956f4a3ab80b0b9fed884c502cf25c8b518e2528c09"},
		{"simplify/uniform", "045f3cf31e2d4cc2fd9aa2bdaa41b0c1f2050d9640e798601a820685b4cd079e"},
		{"stream/greedy", "a89f9b564a9db5929f1f439cc6da0215c393af2dc8f54d2f70379e5d1646dd83"},
		{"stream/sampled", "9c2c06158aae85d6e32a3f8e6ea510ec0ae32f044c2d8c8894574716d15451c9"},
	}
	got := goldenResponses(t)
	if len(got) != len(tests) {
		t.Errorf("%d digests computed, %d expected", len(got), len(tests))
	}
	for _, tc := range tests {
		t.Run(tc.Name, func(t *testing.T) {
			if d, ok := got[tc.Name]; !ok {
				t.Fatal("row not computed")
			} else if d != tc.Expect {
				t.Fatalf("digest %s, want %s", d, tc.Expect)
			}
		})
	}
}

// goldenResponses serves every golden request and returns each row's
// digest by name.
func goldenResponses(t *testing.T) map[string]string {
	t.Helper()
	var policies []*core.Trained
	for _, m := range errm.Measures {
		for _, v := range []rlts.Variant{rlts.Online, rlts.Plus} {
			pp, err := pretrained.Load(m, v)
			if err != nil {
				t.Fatal(err)
			}
			policies = append(policies, pp.Internal())
		}
	}
	sv := NewWith(policies, Config{Metrics: obs.NewRegistry()})
	t.Cleanup(sv.Close)
	h := sv.Handler()
	serve := func(method, url string, body interface{}) (int, []byte) {
		var rd *strings.Reader
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = strings.NewReader(string(raw))
		} else {
			rd = strings.NewReader("")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, url, rd))
		return rec.Code, rec.Body.Bytes()
	}
	out := map[string]string{}
	digest := func(parts ...string) string {
		sum := sha256.Sum256([]byte(strings.Join(parts, "")))
		return hex.EncodeToString(sum[:])
	}
	row := func(name, method, url string, body interface{}) {
		code, b := serve(method, url, body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, code, b)
		}
		out[name] = digest(fmt.Sprintf("%d\n", code), string(b))
		if !strings.HasPrefix(url, "/v1/simplify") || method != http.MethodPost {
			return
		}
		if fc, fb := serve(method, url+"?fast=1", body); fc != code || string(fb) != string(b) {
			t.Errorf("%s: ?fast=1 answered %d %s, want its exact twin %d %s", name, fc, fb, code, b)
		}
	}

	pts := points(gen.New(gen.Truck(), 2026).Trajectory(240))
	row("algorithms", http.MethodGet, "/v1/algorithms", nil)
	for _, p := range policies {
		name := strings.ToLower(p.Opts.Name())
		m := p.Opts.Measure.String()
		req := map[string]interface{}{"algorithm": name, "measure": m, "w": 24, "points": pts}
		row("simplify/"+name+"/"+m, http.MethodPost, "/v1/simplify", req)
	}
	for _, algo := range []string{"sttrace", "squish", "squish-e", "top-down", "bottom-up", "bellman", "span-search", "uniform"} {
		row("simplify/"+algo, http.MethodPost, "/v1/simplify",
			map[string]interface{}{"algorithm": algo, "measure": "PED", "w": 24, "points": pts})
	}
	row("simplify/bound", http.MethodPost, "/v1/simplify",
		map[string]interface{}{"measure": "DAD", "bound": 0.5, "points": pts})
	dirty := append([][3]float64(nil), pts...)
	dirty[10], dirty[11] = dirty[11], dirty[10]
	dirty = append(dirty[:21], dirty[20:]...)
	row("simplify/repair", http.MethodPost, "/v1/simplify",
		map[string]interface{}{"algorithm": "rlts+", "measure": "SED", "w": 24, "repair": map[string]interface{}{}, "points": dirty})

	var items []map[string]interface{}
	for i := 0; i < 3; i++ {
		items = append(items, map[string]interface{}{"points": points(gen.New(gen.Geolife(), int64(60+i)).Trajectory(120 + 40*i))})
	}
	items[1]["w"] = 9
	items = append(items, map[string]interface{}{"points": pts[:1]})
	batch := map[string]interface{}{"algorithm": "rlts+", "measure": "SED", "w": 16, "items": items}
	row("batch", http.MethodPost, "/v1/simplify/batch", batch)

	for _, sample := range []bool{false, true} {
		code, b := serve(http.MethodPost, "/v1/stream",
			map[string]interface{}{"algorithm": "rlts", "measure": "SED", "w": 30, "sample": sample, "seed": 7})
		var created struct{ ID string }
		if err := json.Unmarshal(b, &created); err != nil || created.ID == "" {
			t.Fatalf("stream create: %d %s", code, b)
		}
		id := created.ID
		steps := []string{fmt.Sprintf("%d\n", code), string(b)}
		for k := 0; k < 3; k++ {
			c, b := serve(http.MethodPost, "/v1/stream/"+id+"/points",
				map[string]interface{}{"points": pts[80*k : 80*(k+1)]})
			if c != http.StatusOK {
				t.Fatalf("stream push %d: status %d: %s", k, c, b)
			}
			steps = append(steps, fmt.Sprintf("%d\n", c), string(b))
		}
		for _, method := range []string{http.MethodGet, http.MethodDelete} {
			c, b := serve(method, "/v1/stream/"+id, nil)
			if c != http.StatusOK {
				t.Fatalf("stream %s: status %d: %s", method, c, b)
			}
			steps = append(steps, fmt.Sprintf("%d\n", c), string(b))
		}
		name := "stream/greedy"
		if sample {
			name = "stream/sampled"
		}
		out[name] = digest(strings.ReplaceAll(strings.Join(steps, ""), id, "SESSION"))
	}
	return out
}
