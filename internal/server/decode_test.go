package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"rlts/internal/core"
	"rlts/internal/gen"
	"rlts/internal/traj"
)

// decodeCase is one request body of the decode contract: what the
// point-carrying routes make of it, as encoding/json's Decoder.Decode
// decodes it.
type decodeCase struct {
	name    string
	members string // members of the object that carries the points
	top     string // extra members of the top-level object (simplify, batch)
	whole   bool   // members is the whole body on every route
	deep    int    // > 0: add a member nested to this absolute depth
	after   string // bytes after the body
	routes  string // the routes the case runs on; "" means all four
	want    [][3]float64
	status  int // with code, the failure when want is nil
	code    string
}

// decodeCases pins Decoder.Decode's behaviour on the four point-carrying
// request bodies: /v1/simplify, /v1/stats, a /v1/simplify/batch item
// and a stream push.
var decodeCases = []decodeCase{
	{name: "plain", members: `"points":[[1,2,3],[4,5,6]]`,
		want: [][3]float64{{1, 2, 3}, {4, 5, 6}}},
	{name: "trailing bytes after the value", members: `"points":[[1,2,3],[4,5,6]]`,
		after: ` {"points":[[9,9,9]]} not json [`, want: [][3]float64{{1, 2, 3}, {4, 5, 6}}},
	{name: "two elements give t=0", members: `"points":[[5,6],[1,1,1]]`,
		want: [][3]float64{{5, 6, 0}, {1, 1, 1}}},
	{name: "elements past the third are skipped",
		members: `"points":[[1,2,0,{"a":[1,"x"]}],[3,4,1,"s",null],[5,6,2,true,[[]],-1e999]]`,
		want:    [][3]float64{{1, 2, 0}, {3, 4, 1}, {5, 6, 2}}},
	{name: "null leaves the zero value", members: `"points":[null,[null,2,1],[1,1,2]]`,
		want: [][3]float64{{0, 0, 0}, {0, 2, 1}, {1, 1, 2}}},
	{name: "1e400 is out of range", members: `"points":[[1e400,0,0],[1,1,1]]`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "1e-400 decodes to 0", members: `"points":[[1e-400,2,0],[1,1,1]]`,
		want: [][3]float64{{0, 2, 0}, {1, 1, 1}}},
	{name: "-0 keeps its sign bit", members: `"points":[[-0,-0.0e5,0],[1,1,1]]`,
		want: [][3]float64{{math.Copysign(0, -1), math.Copysign(0, -1), 0}, {1, 1, 1}}},
	{name: "exponent and fraction forms", members: `"points":[[1E2,2.5e-1,0.125],[-7e+0,0.0,1e1]]`,
		want: [][3]float64{{100, 0.25, 0.125}, {-7, 0, 10}}},
	{name: "points null", members: `"points":null`,
		status: http.StatusBadRequest, code: codePointsTooShort},
	{name: "points empty", members: `"points":[]`,
		status: http.StatusBadRequest, code: codePointsTooShort},
	{name: "top-level null", whole: true, members: `null`, routes: "simplify stats push",
		status: http.StatusBadRequest, code: codePointsTooShort},
	{name: "top-level null carries no items", whole: true, members: `null`, routes: "batch",
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "top-level null then bytes", whole: true, members: `null`, after: `x`, routes: "simplify",
		status: http.StatusBadRequest, code: codePointsTooShort},
	{name: "top-level array", whole: true, members: `[[1,2,3],[4,5,6]]`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "w 2.0 is not an int", members: `"w":2.0,"points":[[1,2,3],[4,5,6]]`, routes: "simplify batch",
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "w 2.0 where the body has no w", members: `"w":2.0,"points":[[1,2,3],[4,5,6]]`, routes: "stats push",
		want: [][3]float64{{1, 2, 3}, {4, 5, 6}}},
	{name: "upper-case key", members: `"POINTS":[[1,2,3],[4,5,6]]`,
		want: [][3]float64{{1, 2, 3}, {4, 5, 6}}},
	{name: "U+017F folds to s", members: `"pointſ":[[1,2,3],[4,5,6]]`,
		want: [][3]float64{{1, 2, 3}, {4, 5, 6}}},
	{name: "escaped key", members: `"p\u006fints":[[1,2,3],[4,5,6]]`,
		want: [][3]float64{{1, 2, 3}, {4, 5, 6}}},
	{name: "near-miss key is unknown", members: `"point":[[1,2,3],[4,5,6]]`,
		status: http.StatusBadRequest, code: codePointsTooShort},
	{name: "unknown keys are skipped", members: `"x":{"y":[1,{"z":"\"]"}]},"points":[[1,2,3],[4,5,6]],"n":null`,
		want: [][3]float64{{1, 2, 3}, {4, 5, 6}}},
	{name: "duplicate decodes into the earlier storage",
		members: `"points":[[1,2,3],[4,5,6]],"points":[null,[7,8,9]]`,
		want:    [][3]float64{{1, 2, 3}, {7, 8, 9}}},
	{name: "shorter duplicate truncates",
		members: `"points":[[1,2,3],[4,5,6],[7,8,9]],"points":[[0,0,1],[2,2,2]]`,
		want:    [][3]float64{{0, 0, 1}, {2, 2, 2}}},
	{name: "stale storage resurfaces under null",
		members: `"points":[[1,2,3],[4,5,9]],"points":[[0,0,1]],"points":[[7,7,7],null]`,
		want:    [][3]float64{{7, 7, 7}, {4, 5, 9}}},
	{name: "empty duplicate drops the earlier storage",
		members: `"points":[[1,2,3],[4,5,6]],"points":[],"points":[[0,0,1],null]`,
		status:  http.StatusBadRequest, code: codePointsUnordered},
	{name: "repeated repair objects merge", routes: "simplify batch",
		top:     `"repair":{"max_speed":10},"repair":{"window":4}`,
		members: `"points":[[0,0,0],[1,0,1],[1000,0,2],[3,0,3],[4,0,4]]`,
		want:    [][3]float64{{0, 0, 0}, {1, 0, 1}, {3, 0, 3}, {4, 0, 4}}},
	{name: "string where a number belongs", members: `"points":[["1",2,3],[4,5,6]]`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "object where the points belong", members: `"points":{"0":[1,2,3]}`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "number where a point belongs", members: `"points":[1,[4,5,6]]`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "syntax error after a type error", members: `"points":[["a",2,3],[4,5,6]],"x":[1,]`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "EOF after a type error", whole: true, members: `{"points":[["a",2,3],[4,5,6]]`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "leading zero", members: `"points":[[01,2,3],[4,5,6]]`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "leading plus", members: `"points":[[+1,2,3],[4,5,6]]`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "bare fraction", members: `"points":[[.5,2,3],[4,5,6]]`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "dangling point", members: `"points":[[1.,2,3],[4,5,6]]`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "dangling exponent", members: `"points":[[1e,2,3],[4,5,6]]`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "hex float", members: `"points":[[0x1p0,2,3],[4,5,6]]`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "NaN literal", members: `"points":[[NaN,2,3],[4,5,6]]`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "trailing comma", members: `"points":[[1,2,3],[4,5,6],]`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "control byte in a string", members: "\"x\":\"a\tb\",\"points\":[[1,2,3],[4,5,6]]",
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "bad escape", members: `"x":"\q","points":[[1,2,3],[4,5,6]]`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "control bytes are no hex digits", members: "\"x\":\"\\u00\x10\x11\",\"points\":[[1,2,3],[4,5,6]]",
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "empty body", whole: true, members: ``,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "whitespace-only body", whole: true, members: " \t\r\n ",
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "nesting at the limit", deep: 10000, members: `"points":[[1,2,3],[4,5,6]]`,
		want: [][3]float64{{1, 2, 3}, {4, 5, 6}}},
	{name: "nesting past the limit", deep: 10001, members: `"points":[[1,2,3],[4,5,6]]`,
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "a megabyte of [", whole: true, members: strings.Repeat("[", 1<<20),
		status: http.StatusBadRequest, code: codeBadRequest},
	{name: "still serving after deep bodies", members: `"points":[[1,2,3],[4,5,6]]`,
		want: [][3]float64{{1, 2, 3}, {4, 5, 6}}},
}

// jsonObject joins the non-empty members into one JSON object.
func jsonObject(members ...string) string {
	var kept []string
	for _, m := range members {
		if m != "" {
			kept = append(kept, m)
		}
	}
	return "{" + strings.Join(kept, ",") + "}"
}

// decodeRoute is one point-carrying route of the contract.
type decodeRoute struct {
	name  string
	depth int // nesting depth of the object that carries the points
	path  string
	// body wraps the members of the point-carrying object; w is the
	// budget that keeps every decoded point.
	body func(members, top string, w int) string
}

var decodeRoutes = []decodeRoute{
	{"simplify", 1, "/v1/simplify", func(members, top string, w int) string {
		return jsonObject(`"algorithm":"rlts"`, fmt.Sprintf(`"w":%d`, w), top, members)
	}},
	{"stats", 1, "/v1/stats", func(members, _ string, _ int) string {
		return jsonObject(members)
	}},
	{"batch", 3, "/v1/simplify/batch", func(members, top string, w int) string {
		return jsonObject(`"algorithm":"rlts"`, fmt.Sprintf(`"w":%d`, w), top,
			`"items":[`+jsonObject(members)+`]`)
	}},
	{"push", 1, "/v1/stream/{id}/points", func(members, _ string, _ int) string {
		return jsonObject(members)
	}},
}

// requestBody is c's body on route rt.
func (c decodeCase) requestBody(rt decodeRoute) string {
	if c.whole {
		return c.members + c.after
	}
	members := c.members
	if c.deep > 0 {
		n := c.deep - rt.depth
		members = `"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + "," + members
	}
	return rt.body(members, c.top, max(len(c.want), 2)) + c.after
}

func (c decodeCase) runsOn(route string) bool {
	return c.routes == "" || strings.Contains(" "+c.routes+" ", " "+route+" ")
}

// decodeOutcome is what a route answered: the status and error code, and
// on success the points it echoes back (stats echoes its summary instead).
type decodeOutcome struct {
	status int
	code   string
	points [][3]float64
	stats  statsResponse
}

// serveRoute sends body to rt on h and reads back what was decoded. A
// batch item's inline failure reads as a 400 with its code; a push is
// read back through the session's snapshot.
func serveRoute(t *testing.T, h http.Handler, rt decodeRoute, body string) decodeOutcome {
	t.Helper()
	serve := func(method, path, body string) (int, []byte) {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	path := rt.path
	var id string
	if rt.name == "push" {
		status, raw := serve(http.MethodPost, "/v1/stream", `{"algorithm":"rlts","w":64}`)
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &created); err != nil || status != http.StatusOK {
			t.Fatalf("create session: %d %s", status, raw)
		}
		id = created.ID
		path = "/v1/stream/" + id + "/points"
		defer serve(http.MethodDelete, "/v1/stream/"+id, "")
	}
	status, raw := serve(http.MethodPost, path, body)
	out := decodeOutcome{status: status}
	if status != http.StatusOK {
		_, out.code = errorBody(t, raw)
		return out
	}
	var err error
	switch rt.name {
	case "simplify":
		var resp simplifyResponse
		err = json.Unmarshal(raw, &resp)
		out.points = resp.Points
	case "stats":
		err = json.Unmarshal(raw, &out.stats)
	case "batch":
		var resp batchResponse
		if err = json.Unmarshal(raw, &resp); err == nil && len(resp.Items) != 1 {
			err = fmt.Errorf("%d items", len(resp.Items))
		}
		if err == nil {
			if f := resp.Items[0].Failure; f != nil {
				return decodeOutcome{status: http.StatusBadRequest, code: f.Code}
			}
			out.points = resp.Items[0].Points
		}
	case "push":
		var snap struct {
			Points [][3]float64 `json:"points"`
		}
		status, raw = serve(http.MethodGet, "/v1/stream/"+id, "")
		if status != http.StatusOK {
			t.Fatalf("snapshot: %d %s", status, raw)
		}
		err = json.Unmarshal(raw, &snap)
		out.points = snap.Points
	}
	if err != nil {
		t.Fatalf("%s response %s: %v", rt.name, raw, err)
	}
	return out
}

// samePoints compares two point lists bit for bit, so -0 differs from 0.
func samePoints(a, b [][3]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for k := range a[i] {
			if math.Float64bits(a[i][k]) != math.Float64bits(b[i][k]) {
				return false
			}
		}
	}
	return true
}

// TestDecodeContract pins, route by route, what each decodeCases body
// decodes to or how it fails.
func TestDecodeContract(t *testing.T) {
	s := NewWith([]*core.Trained{onlineTrained(t)}, Config{})
	t.Cleanup(s.Close)
	h := s.Handler()
	for _, c := range decodeCases {
		for _, rt := range decodeRoutes {
			if !c.runsOn(rt.name) {
				continue
			}
			got := serveRoute(t, h, rt, c.requestBody(rt))
			if c.want == nil {
				if got.status != c.status || got.code != c.code {
					t.Errorf("%s on %s: got %d %q, want %d %q", c.name, rt.name, got.status, got.code, c.status, c.code)
				}
				continue
			}
			if got.status != http.StatusOK {
				t.Errorf("%s on %s: got %d %q, want 200", c.name, rt.name, got.status, got.code)
				continue
			}
			if rt.name == "stats" {
				tr, err := traj.FromPoints(c.want)
				if err != nil {
					t.Fatalf("%s: want is no trajectory: %v", c.name, err)
				}
				if got.stats.Points != tr.Len() || got.stats.Duration != tr.Duration() || got.stats.PathLength != tr.PathLength() {
					t.Errorf("%s on stats: got %+v, want %d points, %g s, %g m",
						c.name, got.stats, tr.Len(), tr.Duration(), tr.PathLength())
				}
				continue
			}
			if !samePoints(got.points, c.want) {
				t.Errorf("%s on %s: decoded %v, want %v", c.name, rt.name, got.points, c.want)
			}
		}
	}
}

// numberRows are coordinates that pin how a JSON number decodes: signed
// zeros, round-half-to-even at 2^53 and at midpoints between adjacent
// float64s, significands of 19 and 20 digits, long leading-zero
// fractions, exponent forms and the ends of float64's range. Each
// decodes to strconv.ParseFloat's bits; TestDecodeNumbers runs them
// through readJSON and FuzzDecodeNumber starts from the short ones.
var numberRows = []string{
	"0", "-0", "-0.0", "0.000", "-0e400",
	"9007199254740992", "9007199254740993", "9007199254740995",
	"9007199254740993.0", "9007199254740995.0", "-9007199254740993.0",
	"900719925474099.2", "900719925474099.3",
	// 2^52+0.5 and 2^52+1.5 lie halfway between adjacent float64s.
	"4503599627370496.5", "4503599627370497.5",
	"4503599627370496.49", "4503599627370496.51",
	"4503599627370496.500", "4503599627370496.501", "4503599627370497.499",
	// Near 2^49 float64s are 0.125 apart.
	"562949953421312.0625", "562949953421312.1875",
	"562949953421312.0624", "562949953421312.0626", "-562949953421312.1876",
	"1234567890.123456789", "9876543210.9876543210", "0.1234567890123456789",
	"0." + strings.Repeat("0", 25) + "123456789", "0." + strings.Repeat("0", 25) + "1",
	"0.30000000000000004", "116.31786666666667", "39.984702", "-1.5e-3",
	"9.007199254740993e2", "1.2345678901234567e-3", "12345678901234567e-20",
	"1e-07", "1E+21", "5e-324", "2.2250738585072014e-308",
	"1.7976931348623157e308", "1e-400",
	// strconv stops reading exponent digits once the exponent reaches 10000.
	"0." + strings.Repeat("0", 9999) + "1e100000", "0." + strings.Repeat("0", 10005) + "1e9999",
}

// TestDecodeNumbers holds every numberRows coordinate to the float64
// bits strconv.ParseFloat gives it, and 1e400 to its out-of-range error.
func TestDecodeNumbers(t *testing.T) {
	for _, num := range numberRows {
		want, err := strconv.ParseFloat(num, 64)
		if err != nil {
			t.Fatalf("%s: %v", num, err)
		}
		body := `{"points":[[` + num + `,` + num + `,0]]}`
		var req pointsRequest
		if err := readJSON(strings.NewReader(body), int64(len(body)), &req); err != nil {
			t.Errorf("%s: %v", num, err)
			continue
		}
		if got := req.Points[0]; math.Float64bits(got[0]) != math.Float64bits(want) ||
			math.Float64bits(got[1]) != math.Float64bits(want) {
			t.Errorf("%s decodes to %v (%#x), want %v (%#x)", num, got[0], math.Float64bits(got[0]), want, math.Float64bits(want))
		}
	}
	body := `{"points":[[1e400,0,0],[1,1,1]]}`
	err := readJSON(strings.NewReader(body), int64(len(body)), &pointsRequest{})
	if want := "number 1e400 out of range at byte 12"; err == nil || err.Error() != want {
		t.Errorf("1e400: got %v, want %q", err, want)
	}
	rec := httptest.NewRecorder()
	NewWith(nil, Config{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/stats", strings.NewReader(body)))
	if msg, code := errorBody(t, rec.Body.Bytes()); rec.Code != http.StatusBadRequest || code != codeBadRequest ||
		msg != "bad request body: number 1e400 out of range at byte 12" {
		t.Errorf("1e400 on stats: %d %q %q", rec.Code, code, msg)
	}
}

// spaces is an io.Reader of n space bytes that holds none of them in
// memory.
type spaces struct{ n int }

func (s *spaces) Read(p []byte) (int, error) {
	if s.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), s.n)
	for i := range p[:k] {
		p[i] = ' '
	}
	s.n -= k
	return k, nil
}

// TestDecodeBodyLimit pins the 413 rule: a body longer than
// MaxBodyBytes is 413 only when its first value does not end within the
// limit; trailing bytes past the limit are ignored like any others.
func TestDecodeBodyLimit(t *testing.T) {
	h := NewWith(nil, Config{}).Handler()
	value := `{"algorithm":"uniform","w":2,"points":[[1,2,3],[4,5,6]]}`
	for _, tc := range []struct {
		name   string
		head   string
		status int
		code   string
	}{
		{"complete value then trailing bytes", value, http.StatusOK, ""},
		{"type error then no end", `{"points":"x"`, http.StatusRequestEntityTooLarge, codeBodyTooLarge},
	} {
		n := len(tc.head) + MaxBodyBytes + 16
		req := httptest.NewRequest(http.MethodPost, "/v1/simplify",
			io.MultiReader(strings.NewReader(tc.head), &spaces{n - len(tc.head)}))
		req.ContentLength = int64(n)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.status {
			t.Fatalf("%s: status %d (%s), want %d", tc.name, rec.Code, rec.Body.Bytes(), tc.status)
		}
		if tc.code != "" {
			if _, code := errorBody(t, rec.Body.Bytes()); code != tc.code {
				t.Errorf("%s: code %q, want %q", tc.name, code, tc.code)
			}
		}
	}
}

// BenchmarkDecodeBody decodes two /v1/simplify bodies written as
// json.Marshal writes them, with the body scanner and with
// encoding/json's Decoder, and reports ns per point: 10,000 Truck
// points, and a dirty_bounded-shaped body of 4,000 corrupted Geolife
// fixes with repair and bound members.
func BenchmarkDecodeBody(b *testing.B) {
	var dirty []gen.DirtyConfig
	for _, f := range gen.DirtyFamilies() {
		// garbage, alone or in the kitchen sink, writes NaN and Inf,
		// which JSON cannot carry.
		if f.Name != "garbage" && f.Name != "kitchen-sink" {
			dirty = append(dirty, f)
		}
	}
	bound := 8.0
	for _, body := range []struct {
		name string
		req  simplifyRequest
	}{
		{"truck", simplifyRequest{Algorithm: "rlts+", Measure: "SED", Ratio: 0.1,
			Points: points(gen.New(gen.Truck(), 1).Trajectory(10000))}},
		{"dirty", simplifyRequest{Measure: "SED", Bound: &bound, Repair: &repairParams{Window: 16, MaxSpeed: 60},
			Points: gen.Raw(gen.Compose("dirty", dirty...).Corrupt(gen.New(gen.Geolife(), 1).Trajectory(4000), 2))}},
	} {
		raw, err := json.Marshal(body.req)
		if err != nil {
			b.Fatal(err)
		}
		n := len(body.req.Points)
		for _, bc := range []struct {
			name   string
			decode func(v *simplifyRequest) error
		}{
			{"scanner", func(v *simplifyRequest) error {
				return readJSON(bytes.NewReader(raw), int64(len(raw)), v)
			}},
			{"encoding_json", func(v *simplifyRequest) error {
				return json.NewDecoder(bytes.NewReader(raw)).Decode(v)
			}},
		} {
			b.Run(body.name+"/"+bc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var req simplifyRequest
					if err := bc.decode(&req); err != nil || len(req.Points) != n {
						b.Fatalf("decoded %d points: %v", len(req.Points), err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pt")
			})
		}
	}
}
