package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// fuzzHandler is one baselines-only hardened handler shared by the fuzz
// targets: construction is not what's under test, the request paths are.
var (
	fuzzOnce sync.Once
	fuzzH    http.Handler
)

func fuzzServer() http.Handler {
	fuzzOnce.Do(func() {
		fuzzH = NewWith(nil, Config{MaxConcurrent: -1, RequestTimeout: -1}).Handler()
	})
	return fuzzH
}

// fuzzPost drives one request through the full middleware + handler stack
// and enforces the service's error contract: no panic (Harden would mask
// one as a 500), only expected statuses, and every non-200 body is the
// typed JSON error shape.
func fuzzPost(t *testing.T, path, body string) {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	fuzzServer().ServeHTTP(rr, req)

	switch rr.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
	case http.StatusInternalServerError:
		t.Fatalf("input caused a recovered panic (500): %q -> %s", body, rr.Body.Bytes())
	default:
		t.Fatalf("unexpected status %d for %q", rr.Code, body)
	}
	if rr.Code != http.StatusOK {
		var e struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &e); err != nil || e.Error == "" || e.Code == "" {
			t.Fatalf("status %d body is not a typed JSON error: %q", rr.Code, rr.Body.Bytes())
		}
	}
}

// simplifySeeds and statsSeeds seed the handler fuzz targets and
// FuzzDecodeBody.
var simplifySeeds = []string{
	`{}`,
	`not json at all`,
	`{"points":[[0,0,0],[1,1,1]]}`,
	`{"algorithm":"uniform","w":2,"points":[[0,0,0],[1,1,1],[2,2,2]]}`,
	`{"algorithm":"bottom-up","ratio":0.5,"points":[[0,0,0],[1,1,1],[2,2,2],[3,3,3]]}`,
	`{"algorithm":"bellman","w":2,"points":[[0,0,0],[1,1,1],[2,2,2]]}`,
	`{"algorithm":"uniform","w":1,"points":[[0,0,0],[1,1,1]]}`,
	`{"algorithm":"uniform","ratio":-1,"points":[[0,0,0],[1,1,1]]}`,
	`{"algorithm":"uniform","ratio":1,"points":[[0,0,0],[1,1,1]]}`,
	`{"algorithm":"uniform","ratio":0.999999,"points":[[0,0,0],[1,1,1]]}`,
	`{"algorithm":"uniform","w":2,"points":[[0,0,0],[NaN,1,1]]}`,
	`{"algorithm":"uniform","w":2,"points":[[0,0,0],[1e999,1,1]]}`,
	`{"algorithm":"uniform","w":2,"points":[[0,0,5],[1,1,1]]}`,
	`{"algorithm":"uniform","w":2,"points":[[0,0,1],[1,1,1]]}`,
	`{"algorithm":"uniform","w":2,"points":[[0,0,0]]}`,
	`{"algorithm":"uniform","w":2,"measure":"DAD","points":[[0,0,0],[1,1,1]]}`,
	`{"algorithm":"rlts","w":2,"measure":"SED","points":[[0,0,0],[1,1,1]]}`,
	`{"w":-9223372036854775808,"points":[[0,0,0],[1,1,1]]}`,
}

var statsSeeds = []string{
	`{}`,
	`garbage`,
	`{"points":[[0,0,0],[1,1,1]]}`,
	`{"points":[[0,0,0]]}`,
	`{"points":[[0,0,0],[NaN,0,1]]}`,
	`{"points":[[0,0,0],[0,0,0]]}`,
	`{"points":[[1e308,-1e308,0],[0,0,1]]}`,
	`{"points":[]}`,
}

func FuzzSimplifyHandler(f *testing.F) {
	for _, s := range simplifySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		fuzzPost(t, "/v1/simplify", body)
	})
}

func FuzzStatsHandler(f *testing.F) {
	for _, s := range statsSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		fuzzPost(t, "/v1/stats", body)
	})
}

// FuzzDecodeBody holds the body scanner to encoding/json's
// Decoder.Decode, read through the same http.MaxBytesReader, on every
// request type the scanner decodes and on one it hands whole to
// json.Unmarshal. limit, when it is 1 to len(body), stands in for
// MaxBodyBytes so that the 413 rule is reachable. Both must accept or
// both reject, with the same 413-or-400 answer, and when both accept
// the decoded requests must be equal bit for bit.
func FuzzDecodeBody(f *testing.F) {
	for _, s := range append(append([]string{}, simplifySeeds...), statsSeeds...) {
		f.Add(s, uint16(0))
	}
	for _, c := range decodeCases {
		for _, rt := range decodeRoutes {
			if body := c.requestBody(rt); len(body) <= 1<<12 {
				f.Add(body, uint16(0))
				f.Add(body, uint16(len(body)/2))
			}
		}
	}
	types := []func() any{
		func() any { return new(simplifyRequest) },
		func() any { return new(batchRequest) },
		func() any { return new(pointsRequest) },
		func() any { return new(streamCreateRequest) },
	}
	f.Fuzz(func(t *testing.T, body string, limit uint16) {
		n := int64(len(body)) + 1
		if limit > 0 && int(limit) <= len(body) {
			n = int64(limit)
		}
		for _, typ := range types {
			want, got := typ(), typ()
			werr := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), n)).Decode(want)
			gerr := readJSON(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), n), int64(len(body)), got)
			if (werr == nil) != (gerr == nil) || tooLarge(werr) != tooLarge(gerr) {
				t.Fatalf("%T, limit %d: encoding/json says %v, the scanner %v, on %q", want, n, werr, gerr, body)
			}
			if werr == nil && !sameBits(reflect.ValueOf(want), reflect.ValueOf(got)) {
				t.Fatalf("%T: encoding/json decodes %+v, the scanner %+v, from %q", want, want, got, body)
			}
		}
	})
}

// FuzzDecodeNumber holds the scanner's number path to
// strconv.ParseFloat. Whenever the grammar accepts a number at the start
// of the input, it must decode to the float64 bits strconv.ParseFloat
// gives the same bytes, and a number strconv finds out of range must be
// the scanner's out-of-range type error, leaving the destination as it
// was.
func FuzzDecodeNumber(f *testing.F) {
	for _, s := range numberRows {
		if len(s) <= 1<<8 { // long seeds stall the fuzzer's minimizer
			f.Add(s)
		}
	}
	for _, s := range []string{"1e400", "-1e400", "01", "-", "1.", "1e+", "1.5e3x", " 2.5 "} {
		f.Add(s)
	}
	for _, s := range digitRunRows {
		for _, end := range numberEnds {
			f.Add(s + end)
		}
		for _, c := range notDigits {
			f.Add(s + string(c) + "0")
		}
	}
	const unset = 0x7ff8_dead_beef_0001 // a NaN no number decodes to
	f.Fuzz(func(t *testing.T, s string) {
		d := bodyDecoder{buf: []byte(s)}
		c := d.peek()
		if d.err != nil || c != '-' && c-'0' > 9 {
			return
		}
		start, got := d.pos, math.Float64frombits(unset)
		d.float(&got)
		if d.err != nil {
			return
		}
		num := s[start:d.pos]
		want, err := strconv.ParseFloat(num, 64)
		switch {
		case err != nil && !errors.Is(err, strconv.ErrRange):
			t.Fatalf("the grammar accepts %q, strconv does not: %v", num, err)
		case err != nil:
			if msg := fmt.Sprintf("number %s out of range at byte %d", num, start); d.typeErr == nil ||
				d.typeErr.Error() != msg || math.Float64bits(got) != unset {
				t.Fatalf("%q: got %v (%#x) and error %v, want %q", num, got, math.Float64bits(got), d.typeErr, msg)
			}
		case d.typeErr != nil || math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("%q decodes to %v (%#x, error %v), strconv to %v (%#x)",
				num, got, math.Float64bits(got), d.typeErr, want, math.Float64bits(want))
		}
	})
}

func tooLarge(err error) bool {
	var e *http.MaxBytesError
	return errors.As(err, &e)
}

// sameBits is reflect.DeepEqual with floats compared by their bits, so
// that -0 differs from 0.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// TestBodyFieldsMatchTags checks that each type the scanner decodes
// member by member lists exactly its JSON-tagged fields, each pointing
// at the field of that name.
func TestBodyFieldsMatchTags(t *testing.T) {
	for _, o := range []bodyObject{&simplifyRequest{}, &batchRequest{}, &batchItemRequest{}, &pointsRequest{}} {
		v := reflect.ValueOf(o).Elem()
		tags := map[string]any{}
		for i := 0; i < v.NumField(); i++ {
			name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			tags[name] = v.Field(i).Addr().Interface()
		}
		fs := o.bodyFields()
		if len(fs) != len(tags) {
			t.Errorf("%T lists %d fields, has %d tagged", o, len(fs), len(tags))
		}
		for _, f := range fs {
			if dst, ok := tags[f.name]; !ok || dst != f.dst {
				t.Errorf("%T: field %q does not point at the field tagged %q", o, f.name, f.name)
			}
		}
	}
}
