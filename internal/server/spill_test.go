package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rlts"
	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/faultinject"
	"rlts/internal/gen"
	"rlts/internal/obs"
	"rlts/internal/rl"
	"rlts/pretrained"
)

// onlineTrainedJ is onlineTrained with skip actions enabled (J > 0), so
// spill tests cover the pending-skip counter and the "skipped" response
// field. Deterministic: the policy weights depend only on the seed.
func onlineTrainedJ(t *testing.T, j int) *core.Trained {
	t.Helper()
	opts := core.Options{Measure: errm.SED, Variant: core.Online, K: 3, J: j}
	p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 8, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return &core.Trained{Opts: opts, Policy: p}
}

// spillServer builds a durable test server over dir with an isolated
// registry and a skip-capable policy.
func spillServer(t *testing.T, dir string, cfg Config) (*httptest.Server, *Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	cfg.SpillDir = dir
	sv := NewWith([]*core.Trained{onlineTrainedJ(t, 2)}, cfg)
	t.Cleanup(sv.Close)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	return ts, sv, reg
}

func streamPoints(t *testing.T, n int) [][3]float64 {
	t.Helper()
	return points(gen.New(gen.Geolife(), 31).Dataset(1, n)[0])
}

func pushPoints(t *testing.T, url, id string, pts [][3]float64) (seen, buffered, skipped int) {
	t.Helper()
	resp, raw := post(t, url+"/v1/stream/"+id+"/points",
		map[string]interface{}{"points": pts})
	if resp.StatusCode != 200 {
		t.Fatalf("push: status %d: %s", resp.StatusCode, raw)
	}
	var pr struct {
		Seen     int `json:"seen"`
		Buffered int `json:"buffered"`
		Skipped  int `json:"skipped"`
	}
	decodeRaw(t, raw, &pr)
	return pr.Seen, pr.Buffered, pr.Skipped
}

// TestStreamRestartBitIdentical is the PR's acceptance scenario: a server
// killed mid-stream and restarted against the same spill directory
// produces snapshots bit-identical to an uninterrupted run — greedy and
// sampled.
func TestStreamRestartBitIdentical(t *testing.T) {
	pts := streamPoints(t, 160)
	for _, sample := range []bool{false, true} {
		create := map[string]interface{}{
			"algorithm": "rlts-skip", "w": 8, "sample": sample, "seed": 99,
		}

		// The uninterrupted control run.
		tsC, _, _ := spillServer(t, t.TempDir(), Config{})
		idC := createStream(t, tsC.URL, create)
		pushPoints(t, tsC.URL, idC, pts)
		_, want := getSnapshot(t, tsC.URL, idC)

		// The interrupted run: half the points, drain (the SIGTERM path),
		// process "dies", a new process picks up the same directory.
		dir := t.TempDir()
		regA := obs.NewRegistry()
		svA := NewWith([]*core.Trained{onlineTrainedJ(t, 2)},
			Config{Metrics: regA, SpillDir: dir})
		tsA := httptest.NewServer(svA.Handler())
		id := createStream(t, tsA.URL, create)
		pushPoints(t, tsA.URL, id, pts[:80])
		if err := svA.DrainStreams(); err != nil {
			t.Fatalf("sample=%v: drain: %v", sample, err)
		}
		tsA.Close()
		svA.Close()

		tsB, _, regB := spillServer(t, dir, Config{})
		if got := regB.Counter("rlts_stream_sessions_recovered_total", "").Value(); got != 1 {
			t.Errorf("sample=%v: recovered = %d, want 1", sample, got)
		}
		pushPoints(t, tsB.URL, id, pts[80:])
		if got := regB.Counter("rlts_stream_rehydrations_total", "").Value(); got != 1 {
			t.Errorf("sample=%v: rehydrations = %d, want 1", sample, got)
		}
		resp, got := getSnapshot(t, tsB.URL, id)
		if resp.StatusCode != 200 {
			t.Fatalf("sample=%v: snapshot after restart: status %d", sample, resp.StatusCode)
		}
		if got.Seen != want.Seen || len(got.Points) != len(want.Points) {
			t.Fatalf("sample=%v: restarted run diverged: seen %d/%d, kept %d/%d",
				sample, got.Seen, want.Seen, len(got.Points), len(want.Points))
		}
		for i := range got.Points {
			if got.Points[i] != want.Points[i] {
				t.Fatalf("sample=%v: point %d differs after restart: %v vs %v",
					sample, i, got.Points[i], want.Points[i])
			}
		}
	}
}

// TestStreamLRUSpillRehydrate drives the spill path through pure memory
// pressure: with a one-session hot budget, creating a second session
// pushes the first to disk, and touching it again brings it back with
// identical results.
func TestStreamLRUSpillRehydrate(t *testing.T) {
	dir := t.TempDir()
	ts, _, reg := spillServer(t, dir, Config{StreamShards: 1, MaxHotSessions: 1})
	pts := streamPoints(t, 120)

	idA := createStream(t, ts.URL, map[string]interface{}{"algorithm": "rlts-skip", "w": 8})
	pushPoints(t, ts.URL, idA, pts[:60])
	time.Sleep(2 * time.Millisecond) // order the LRU scan's clock
	idB := createStream(t, ts.URL, map[string]interface{}{"algorithm": "rlts-skip", "w": 8})
	if got := reg.Counter("rlts_stream_spills_total", "").Value(); got == 0 {
		t.Fatal("second create did not spill the cold session")
	}
	if _, err := os.Stat(filepath.Join(dir, idA+".sess")); err != nil {
		t.Fatalf("spilled session has no file: %v", err)
	}
	if got := reg.Gauge("rlts_stream_sessions_hot", "").Value(); got != 1 {
		t.Errorf("hot gauge = %v, want 1", got)
	}
	if got := reg.Gauge("rlts_stream_sessions_active", "").Value(); got != 2 {
		t.Errorf("active gauge = %v, want 2", got)
	}

	// Touch the cold one: it rehydrates (and the other spills in turn).
	pushPoints(t, ts.URL, idA, pts[60:])
	if got := reg.Counter("rlts_stream_rehydrations_total", "").Value(); got == 0 {
		t.Fatal("push to spilled session did not rehydrate")
	}
	if _, err := os.Stat(filepath.Join(dir, idA+".sess")); !os.IsNotExist(err) {
		t.Errorf("rehydrated session still has a spill file (err %v)", err)
	}
	_, got := getSnapshot(t, ts.URL, idA)

	// Control: same pushes, never spilled.
	tsC, _, _ := spillServer(t, t.TempDir(), Config{})
	idC := createStream(t, tsC.URL, map[string]interface{}{"algorithm": "rlts-skip", "w": 8})
	pushPoints(t, tsC.URL, idC, pts[:60])
	pushPoints(t, tsC.URL, idC, pts[60:])
	_, want := getSnapshot(t, tsC.URL, idC)
	if got.Seen != want.Seen || len(got.Points) != len(want.Points) {
		t.Fatalf("spill round trip diverged: seen %d/%d kept %d/%d",
			got.Seen, want.Seen, len(got.Points), len(want.Points))
	}
	for i := range got.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("point %d differs after spill round trip", i)
		}
	}
	_ = idB
}

// TestStreamSpillCorruptQuarantined: damaged spill files 404 with a
// distinct code, increment the corrupt counter, and move aside — the
// server never crashes and never half-restores.
func TestStreamSpillCorruptQuarantined(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"bit flip", func(d []byte) []byte { d[len(d)/2] ^= 0x40; return d }},
		{"garbage", func(d []byte) []byte { return []byte("not a session") }},
		{"empty", func(d []byte) []byte { return nil }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			ts, sv, reg := spillServer(t, dir, Config{})
			id := createStream(t, ts.URL, map[string]interface{}{"algorithm": "rlts-skip", "w": 8})
			pushPoints(t, ts.URL, id, streamPoints(t, 40))
			if err := sv.DrainStreams(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, id+".sess")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			resp, raw := getRaw(t, ts.URL+"/v1/stream/"+id)
			if resp.StatusCode != 404 {
				t.Fatalf("snapshot of corrupt session: status %d: %s", resp.StatusCode, raw)
			}
			if !strings.Contains(string(raw), codeStreamCorrupt) {
				t.Errorf("error body %s does not carry code %q", raw, codeStreamCorrupt)
			}
			if got := reg.Counter("rlts_stream_spill_corrupt_total", "").Value(); got != 1 {
				t.Errorf("corrupt counter = %d, want 1", got)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Errorf("corrupt file not quarantined: %v", err)
			}
			// The session is gone now: a second touch is a clean 404.
			resp, raw = getRaw(t, ts.URL+"/v1/stream/"+id)
			if resp.StatusCode != 404 || !strings.Contains(string(raw), codeStreamNotFound) {
				t.Errorf("second touch: status %d body %s, want plain 404", resp.StatusCode, raw)
			}
		})
	}
}

// TestStreamSpillWriteFailureDegrades: when the disk refuses spill
// writes, sessions stay live in memory (pushes and snapshots keep
// working), the error counter grows, and drain reports the loss.
func TestStreamSpillWriteFailureDegrades(t *testing.T) {
	ts, sv, reg := spillServer(t, t.TempDir(), Config{
		StreamShards:   1,
		MaxHotSessions: 1,
		SpillWrite:     faultinject.FailWrites(0, nil),
	})
	pts := streamPoints(t, 80)
	idA := createStream(t, ts.URL, map[string]interface{}{"algorithm": "rlts-skip", "w": 8})
	pushPoints(t, ts.URL, idA, pts[:40])
	idB := createStream(t, ts.URL, map[string]interface{}{"algorithm": "rlts-skip", "w": 8})
	if got := reg.Counter("rlts_stream_spill_errors_total", "").Value(); got == 0 {
		t.Fatal("failed spill not counted")
	}
	// Both sessions survived the failed spill, over budget but live.
	if seen, _, _ := pushPoints(t, ts.URL, idA, pts[40:]); seen != 80 {
		t.Errorf("session A seen = %d after failed spill, want 80", seen)
	}
	if resp, _ := getSnapshot(t, ts.URL, idB); resp.StatusCode != 200 {
		t.Errorf("session B snapshot: status %d", resp.StatusCode)
	}
	if got := reg.Gauge("rlts_stream_sessions_hot", "").Value(); got != 2 {
		t.Errorf("hot gauge = %v, want 2 (nothing spilled)", got)
	}
	if err := sv.DrainStreams(); err == nil {
		t.Error("drain with a failing disk reported success")
	}
}

// TestStreamCloseSpilledSession: DELETE of a session that lives on disk
// answers seen/kept from the spill file and removes it.
func TestStreamCloseSpilledSession(t *testing.T) {
	dir := t.TempDir()
	ts, sv, reg := spillServer(t, dir, Config{})
	id := createStream(t, ts.URL, map[string]interface{}{"algorithm": "rlts-skip", "w": 8})
	pts := streamPoints(t, 50)
	pushPoints(t, ts.URL, id, pts)
	_, snap := getSnapshot(t, ts.URL, id)
	if err := sv.DrainStreams(); err != nil {
		t.Fatal(err)
	}
	resp, raw := deleteRaw(t, ts.URL, id)
	if resp.StatusCode != 200 {
		t.Fatalf("close spilled: status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Closed bool `json:"closed"`
		Seen   int  `json:"seen"`
		Kept   int  `json:"kept"`
	}
	decodeRaw(t, raw, &out)
	if !out.Closed || out.Seen != snap.Seen || out.Kept != len(snap.Points) {
		t.Errorf("close spilled = %+v, want seen %d kept %d", out, snap.Seen, len(snap.Points))
	}
	if _, err := os.Stat(filepath.Join(dir, id+".sess")); !os.IsNotExist(err) {
		t.Errorf("closed session's spill file not removed (err %v)", err)
	}
	if got := reg.Gauge("rlts_stream_sessions_active", "").Value(); got != 0 {
		t.Errorf("active gauge = %v after close, want 0", got)
	}
}

// TestStreamPushReportsSkippedAndCloseReportsKept covers the response
// contract additions: per-push swallowed-point counts and the final kept
// size on DELETE.
func TestStreamPushReportsSkippedAndCloseReportsKept(t *testing.T) {
	ts, _, _ := spillServer(t, t.TempDir(), Config{})
	id := createStream(t, ts.URL, map[string]interface{}{
		"algorithm": "rlts-skip", "w": 8, "sample": true, "seed": 3,
	})
	pts := streamPoints(t, 200)
	total := 0
	for off := 0; off < len(pts); off += 50 {
		_, _, skipped := pushPoints(t, ts.URL, id, pts[off:off+50])
		if skipped < 0 || skipped > 50 {
			t.Fatalf("push reported skipped = %d of 50", skipped)
		}
		total += skipped
	}
	if total == 0 {
		t.Error("sampled skip policy over 200 points reported no skipped points")
	}
	_, snap := getSnapshot(t, ts.URL, id)
	resp, raw := deleteRaw(t, ts.URL, id)
	if resp.StatusCode != 200 {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
	var out struct {
		Seen int `json:"seen"`
		Kept int `json:"kept"`
	}
	decodeRaw(t, raw, &out)
	if out.Kept != len(snap.Points) || out.Seen != 200 {
		t.Errorf("close = %+v, want kept %d seen 200", out, len(snap.Points))
	}
}

// TestStreamTraversalIDsNeverTouchDisk: lookup ids that are not
// well-formed session ids must not reach the filesystem (path traversal
// via /v1/stream/{id}).
func TestStreamTraversalIDsNeverTouchDisk(t *testing.T) {
	dir := t.TempDir()
	ts, _, _ := spillServer(t, dir, Config{})
	secret := filepath.Join(dir, "..", "secret.sess")
	if err := os.WriteFile(secret, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"..%2Fsecret", "ABCDEF0123456789", "0123456789abcde.", "x"} {
		resp, _ := getRaw(t, ts.URL+"/v1/stream/"+id)
		if resp.StatusCode != 404 {
			t.Errorf("id %q: status %d, want 404", id, resp.StatusCode)
		}
	}
	if _, err := os.Stat(secret); err != nil {
		t.Errorf("file outside the spill dir disturbed: %v", err)
	}
}

// TestServerCloseRacesStreamTraffic (run under -race): Server.Close and
// DrainStreams concurrent with in-flight creates, pushes, snapshots,
// deletes and janitor ticks must be free of data races and panics. The
// aggressive TTL keeps the janitor sweeping memory and disk throughout.
func TestServerCloseRacesStreamTraffic(t *testing.T) {
	ts, sv, _ := spillServer(t, t.TempDir(), Config{
		StreamTTL:      20 * time.Millisecond,
		StreamShards:   2,
		MaxHotSessions: 2,
	})
	pts := streamPoints(t, 30)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Best-effort traffic: eviction mid-loop makes 404s legal.
				resp, raw := post(t, ts.URL+"/v1/stream",
					map[string]interface{}{"algorithm": "rlts-skip", "w": 5})
				if resp.StatusCode != 200 {
					continue
				}
				var out struct {
					ID string `json:"id"`
				}
				decodeRaw(t, raw, &out)
				post(t, ts.URL+"/v1/stream/"+out.ID+"/points",
					map[string]interface{}{"points": pts})
				getRaw(t, ts.URL+"/v1/stream/"+out.ID)
				deleteRaw(t, ts.URL, out.ID)
			}
		}()
	}
	time.Sleep(60 * time.Millisecond)
	sv.DrainStreams() // may race new creates; error is acceptable
	sv.Close()        // the janitor stops while traffic continues
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func decodeRaw(t *testing.T, raw []byte, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
}

func deleteRaw(t *testing.T, url, id string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/stream/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// FuzzSessionDecode feeds arbitrary bytes to the spill envelope decoder:
// it must error or decode, never panic — and anything it accepts must
// re-encode to an envelope it accepts again (no half-restored records).
func FuzzSessionDecode(f *testing.F) {
	st := &core.StreamerState{W: 4, Seen: 2, HasLast: true}
	st.Last.X, st.Last.Y, st.Last.T = 1, 2, 3
	valid := encodeSession(&sessionRecord{
		ID: "00deadbeef00cafe", Key: "rlts/sed", Seed: 42, LastActive: 1700000000, State: st,
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:5])
	f.Add([]byte{})
	f.Add([]byte("RLSS"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeSession(data)
		if err != nil {
			return
		}
		if rec.State == nil || !validSpillID(rec.ID) || rec.Key == "" {
			t.Fatalf("decoder accepted a half-restored record: %+v", rec)
		}
		again, err := decodeSession(encodeSession(rec))
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if again.ID != rec.ID || again.Key != rec.Key || again.Seed != rec.Seed ||
			again.LastActive != rec.LastActive {
			t.Fatal("envelope round trip changed the record")
		}
	})
}

// TestStreamSpillV1Rehydrates: a session spilled by the first durable
// release (commit 0e77a84: envelope v1 around StreamerState v1, which
// predates ErrEst) must rehydrate after an upgrade instead of being
// quarantined, and continue bit-identically. The fixture was written by
// that release's own server: a sampled session (seed 42, W=12) over the
// embedded online SED policy, fed the first 60 points of
// gen.Geolife seed 7 (120 points), then drained to disk.
func TestStreamSpillV1Rehydrates(t *testing.T) {
	const id = "cb3f14f7c63fe529"
	blob, err := os.ReadFile(filepath.Join("testdata", "spill_v1.sess"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, id+spillExt), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	pp, err := pretrained.Load(rlts.SED, rlts.Online)
	if err != nil {
		t.Fatal(err)
	}
	tr := pp.Internal()
	reg := obs.NewRegistry()
	// The file's last-active time is when it was written; with the TTL
	// on, it would be reaped as idle instead of rehydrated.
	sv := NewWith([]*core.Trained{tr}, Config{Metrics: reg, SpillDir: dir, StreamTTL: -1})
	t.Cleanup(sv.Close)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)

	feed := gen.New(gen.Geolife(), 7).Trajectory(120)
	pushPoints(t, ts.URL, id, points(feed[60:]))
	if got := reg.Counter("rlts_stream_rehydrations_total", "").Value(); got != 1 {
		t.Errorf("rehydrations = %d, want 1", got)
	}
	resp, got := getSnapshot(t, ts.URL, id)
	if resp.StatusCode != 200 {
		t.Fatalf("snapshot after upgrade: status %d", resp.StatusCode)
	}

	ctl, err := core.NewStreamer(tr.Policy, 12, tr.Opts, true, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range feed {
		ctl.Push(p)
	}
	want := ctl.Snapshot()
	if got.Seen != ctl.Seen() || len(got.Points) != len(want) {
		t.Fatalf("rehydrated v1 session diverged: seen %d/%d, kept %d/%d",
			got.Seen, ctl.Seen(), len(got.Points), len(want))
	}
	for i, p := range want {
		if got.Points[i] != [3]float64{p.X, p.Y, p.T} {
			t.Fatalf("point %d differs: %v vs %v", i, got.Points[i], p)
		}
	}
}
