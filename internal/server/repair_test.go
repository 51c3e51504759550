package server

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"net/http/httptest"
	"testing"

	"rlts/internal/core"
	"rlts/internal/gen"
	"rlts/internal/obs"
	"rlts/internal/traj"
)

// dirtyPoints corrupts a clean generated trajectory with one defect
// family, in wire form. Non-finite rows are dropped: JSON cannot carry
// NaN or ±Inf, so no HTTP client can physically send them — that
// defect class is covered by the traj-level tests.
func dirtyPoints(t *testing.T, fam gen.DirtyConfig, n int) [][3]float64 {
	t.Helper()
	clean := gen.New(gen.Geolife(), 77).Trajectory(n)
	raw := gen.Raw(fam.Corrupt(clean, 177))
	out := raw[:0]
	for _, p := range raw {
		if isFiniteRow(p) {
			out = append(out, p)
		}
	}
	return out
}

func isFiniteRow(p [3]float64) bool {
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// repairOpts is the repair opt-in used across these tests: window deep
// enough for every family's swaps, gate far above Geolife speeds.
var repairOpts = map[string]interface{}{"window": 16, "max_speed": 60}

// TestSimplifyRepairEveryFamily is the one-shot half of the acceptance
// criterion: with repair enabled, every dirty generator family ingests
// without a 400, and the simplification runs on the repaired points.
func TestSimplifyRepairEveryFamily(t *testing.T) {
	srv := testServer(t)
	sawStrictReject := false
	for _, fam := range gen.DirtyFamilies() {
		pts := dirtyPoints(t, fam, 300)
		// When the family actually breaks the strict contract (some,
		// like burst-gaps, only stretch time and stay valid), the
		// repair-less path must be a classified 400.
		if _, ferr := traj.FromPoints(pts); ferr != nil {
			resp, raw := post(t, srv.URL+"/v1/simplify", map[string]interface{}{
				"algorithm": "uniform", "w": 20, "points": pts,
			})
			if resp.StatusCode != 400 {
				t.Fatalf("%s: strict ingest accepted dirty input: %d %s", fam.Name, resp.StatusCode, raw)
			}
			_, code := errorBody(t, raw)
			switch code {
			case codePointsUnordered, codePointsDuplicate, codePointsNonFinite, codePointsTooShort:
				sawStrictReject = true
			default:
				t.Errorf("%s: unclassified reject code %q", fam.Name, code)
			}
		}
		// With repair every family must succeed.
		resp, raw := post(t, srv.URL+"/v1/simplify", map[string]interface{}{
			"algorithm": "uniform", "w": 20, "points": pts, "repair": repairOpts,
		})
		if resp.StatusCode != 200 {
			t.Fatalf("%s: repaired ingest failed: %d %s", fam.Name, resp.StatusCode, raw)
		}
		var out simplifyResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if out.Repair == nil || out.Repair.Pushed != len(pts) {
			t.Fatalf("%s: repair report missing or wrong: %+v", fam.Name, out.Repair)
		}
		if out.Repair.Emitted != out.Of {
			t.Errorf("%s: simplified %d points but repair emitted %d", fam.Name, out.Of, out.Repair.Emitted)
		}
		if kept, err := traj.FromPoints(out.Points); err != nil || kept.Len() != out.Kept {
			t.Errorf("%s: response points invalid: %v", fam.Name, err)
		}
	}
	if !sawStrictReject {
		t.Error("no family exercised the strict classified-reject path")
	}
}

// TestSimplifyRepairCleanIdentity: clean input with repair enabled is
// untouched — same simplification as without repair, zero defects.
// TestSimplifyRepairBoundedReport: an error-bounded answer over repaired
// input carries the repair report like a budgeted one.
func TestSimplifyRepairBoundedReport(t *testing.T) {
	srv := testServer(t)
	for _, fam := range gen.DirtyFamilies() {
		pts := dirtyPoints(t, fam, 300)
		for _, m := range []string{"SED", "PED"} {
			resp, raw := post(t, srv.URL+"/v1/simplify", map[string]interface{}{
				"measure": m, "bound": 5.0, "points": pts, "repair": repairOpts,
			})
			if resp.StatusCode != 200 {
				t.Fatalf("%s %s: status %d: %s", fam.Name, m, resp.StatusCode, raw)
			}
			var out simplifyResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatal(err)
			}
			if out.BoundMet == nil {
				t.Fatalf("%s %s: not a bounded answer: %s", fam.Name, m, raw)
			}
			if out.Repair == nil || out.Repair.Pushed != len(pts) || out.Repair.Emitted != out.Of {
				t.Fatalf("%s %s: repair report missing or wrong: %+v (of %d)", fam.Name, m, out.Repair, out.Of)
			}
		}
	}
}

func TestSimplifyRepairCleanIdentity(t *testing.T) {
	srv := testServer(t)
	pts := points(gen.New(gen.Geolife(), 9).Trajectory(200))
	req := map[string]interface{}{"algorithm": "rlts+", "measure": "SED", "w": 15, "points": pts}
	_, rawStrict := post(t, srv.URL+"/v1/simplify", req)
	req["repair"] = repairOpts
	resp, rawRepair := post(t, srv.URL+"/v1/simplify", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, rawRepair)
	}
	var strict, repaired simplifyResponse
	if err := json.Unmarshal(rawStrict, &strict); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawRepair, &repaired); err != nil {
		t.Fatal(err)
	}
	if repaired.Repair == nil || repaired.Repair.Emitted != len(pts) ||
		repaired.Repair.NonFinite+repaired.Repair.Late+repaired.Repair.Duplicates+repaired.Repair.Outliers != 0 {
		t.Fatalf("clean input produced defects: %+v", repaired.Repair)
	}
	if strict.Kept != repaired.Kept || strict.Error != repaired.Error {
		t.Fatalf("repair changed a clean simplification: %d/%g vs %d/%g",
			strict.Kept, strict.Error, repaired.Kept, repaired.Error)
	}
}

// TestBatchRepairMode: the batch endpoint accepts the repair opt-in,
// applies it per item, and reports per-item accounting.
func TestBatchRepairMode(t *testing.T) {
	srv := testServer(t)
	fam, _ := gen.DirtyFamilyByName("kitchen-sink")
	items := []map[string]interface{}{
		{"points": dirtyPoints(t, fam, 250)},
		{"points": points(gen.New(gen.Geolife(), 13).Trajectory(100))},
	}
	resp, raw := post(t, srv.URL+"/v1/simplify/batch", map[string]interface{}{
		"algorithm": "rlts+", "measure": "SED", "w": 10,
		"repair": repairOpts, "items": items,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out batchResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Failed != 0 {
		t.Fatalf("repaired batch failed items: %s", raw)
	}
	if out.Items[0].Repair == nil || out.Items[0].Repair.Pushed == 0 {
		t.Fatalf("dirty item missing repair report: %+v", out.Items[0])
	}
	if out.Items[1].Repair == nil || out.Items[1].Repair.Emitted != 100 {
		t.Fatalf("clean item repair report wrong: %+v", out.Items[1].Repair)
	}
	// Without repair the dirty item fails inline while the clean one runs.
	resp, raw = post(t, srv.URL+"/v1/simplify/batch", map[string]interface{}{
		"algorithm": "rlts+", "measure": "SED", "w": 10, "items": items,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Failed != 1 || out.Items[0].Failure == nil || out.Items[1].Failure != nil {
		t.Fatalf("strict batch classification wrong: %s", raw)
	}
}

// TestStreamRepairEveryFamily is the streaming half of the acceptance
// criterion: a repair-enabled session ingests every dirty family,
// chunked arbitrarily, without a 400, and its snapshot is always a
// valid trajectory.
func TestStreamRepairEveryFamily(t *testing.T) {
	ts, _, reg := streamServer(t, Config{})
	for _, fam := range gen.DirtyFamilies() {
		pts := dirtyPoints(t, fam, 300)
		id := createStream(t, ts.URL, map[string]interface{}{
			"w": 8, "repair": repairOpts,
		})
		for lo := 0; lo < len(pts); lo += 37 {
			hi := lo + 37
			if hi > len(pts) {
				hi = len(pts)
			}
			resp, raw := post(t, ts.URL+"/v1/stream/"+id+"/points",
				map[string]interface{}{"points": pts[lo:hi]})
			if resp.StatusCode != 200 {
				t.Fatalf("%s: push [%d:%d] rejected: %d %s", fam.Name, lo, hi, resp.StatusCode, raw)
			}
		}
		resp, snap := getSnapshot(t, ts.URL, id)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: snapshot status %d", fam.Name, resp.StatusCode)
		}
		if len(snap.Points) >= 2 {
			if _, err := traj.FromPoints(snap.Points); err != nil {
				t.Fatalf("%s: snapshot invalid: %v", fam.Name, err)
			}
		}
	}
	// The per-defect counters saw the damage.
	var total uint64
	for _, defect := range []string{"non_finite", "late", "reordered", "duplicate", "outlier"} {
		total += reg.Counter("rlts_repair_points_total", "", obs.L("defect", defect)).Value()
	}
	if total == 0 {
		t.Error("rlts_repair_points_total saw no defects")
	}
}

// TestStreamRepairRestartBitIdentical extends the PR 7 acceptance
// scenario to repair sessions: drain mid-stream with fixes pending in
// the repair window, restart, and the final snapshot is bit-identical
// to an uninterrupted run — the v2 envelope carries the window.
func TestStreamRepairRestartBitIdentical(t *testing.T) {
	fam, _ := gen.DirtyFamilyByName("kitchen-sink")
	clean := gen.New(gen.Geolife(), 55).Trajectory(160)
	var pts [][3]float64
	for _, p := range gen.Raw(fam.Corrupt(clean, 7)) {
		if isFiniteRow(p) {
			pts = append(pts, p)
		}
	}
	create := map[string]interface{}{
		"algorithm": "rlts-skip", "w": 8, "repair": repairOpts,
	}

	// Uninterrupted control.
	tsC, _, _ := spillServer(t, t.TempDir(), Config{})
	idC := createStream(t, tsC.URL, create)
	pushPoints(t, tsC.URL, idC, pts)
	_, want := getSnapshot(t, tsC.URL, idC)

	// Interrupted run: cut mid-stream (the repair window is full at 16
	// pending fixes), drain, restart, finish.
	dir := t.TempDir()
	regA := obs.NewRegistry()
	svA := NewWith([]*core.Trained{onlineTrainedJ(t, 2)}, Config{Metrics: regA, SpillDir: dir})
	tsA := httptest.NewServer(svA.Handler())
	id := createStream(t, tsA.URL, create)
	pushPoints(t, tsA.URL, id, pts[:80])
	if err := svA.DrainStreams(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	tsA.Close()
	svA.Close()

	tsB, _, _ := spillServer(t, dir, Config{})
	pushPoints(t, tsB.URL, id, pts[80:])
	_, got := getSnapshot(t, tsB.URL, id)
	if got.Seen != want.Seen || got.Kept != want.Kept || len(got.Points) != len(want.Points) {
		t.Fatalf("restart diverged: seen %d/%d kept %d/%d", got.Seen, want.Seen, got.Kept, want.Kept)
	}
	for i := range got.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("restart snapshot differs at %d: %v vs %v", i, got.Points[i], want.Points[i])
		}
	}
}

// TestSpillEnvelopeV1StillDecodes: spill files written before the repair
// extension (envelope version 1) must rehydrate unchanged.
func TestSpillEnvelopeV1StillDecodes(t *testing.T) {
	str, err := core.NewStreamer(onlineTrainedJ(t, 2).Policy, 8,
		onlineTrainedJ(t, 2).Opts, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	state := str.ExportState().AppendBinary(nil)
	// Hand-build the v1 layout: no repair section, state runs to the CRC.
	id := "00112233aabbccdd"
	key := "rlts-skip/sed"
	b := []byte(spillMagic)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = append(b, byte(len(id)))
	b = append(b, id...)
	b = append(b, byte(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint64(b, 99)
	b = binary.LittleEndian.AppendUint64(b, uint64(0))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(state)))
	b = append(b, state...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))

	rec, err := decodeSession(b)
	if err != nil {
		t.Fatalf("v1 envelope rejected: %v", err)
	}
	if rec.ID != id || rec.Key != key || rec.Seed != 99 || rec.Repair != nil {
		t.Fatalf("v1 decode wrong: %+v", rec)
	}
	// And the v2 round trip preserves a repair section.
	rp := traj.NewRepairer(traj.RepairConfig{Window: 4, MaxSpeed: 10})
	rec.Repair = rp.ExportState()
	back, err := decodeSession(encodeSession(rec))
	if err != nil {
		t.Fatal(err)
	}
	if back.Repair == nil || back.Repair.Cfg != rec.Repair.Cfg {
		t.Fatalf("v2 repair section lost: %+v", back.Repair)
	}
}

// TestPointsErrorCodeClassification unit-tests the classifier,
// including the non-finite branch that JSON wire bodies cannot reach
// (JSON has no NaN/Inf literal).
func TestPointsErrorCodeClassification(t *testing.T) {
	cases := []struct {
		pts  [][3]float64
		code string
	}{
		{[][3]float64{{0, 0, 0}, {1, 0, math.NaN()}}, codePointsNonFinite},
		{[][3]float64{{0, 0, 0}, {1, 0, 0}}, codePointsDuplicate},
		{[][3]float64{{0, 0, 5}, {1, 0, 2}}, codePointsUnordered},
		{[][3]float64{{0, 0, 0}}, codePointsTooShort},
	}
	for _, tc := range cases {
		_, err := traj.FromPoints(tc.pts)
		if err == nil {
			t.Fatalf("%v: expected error", tc.pts)
		}
		if got := pointsErrorCode(err); got != tc.code {
			t.Errorf("%v: code %q, want %q", tc.pts, got, tc.code)
		}
	}
}

// TestStreamRejectCodesClassified regression-tests each classified
// reject code on the strict stream path.
func TestStreamRejectCodesClassified(t *testing.T) {
	ts, _, reg := streamServer(t, Config{})
	id := createStream(t, ts.URL, map[string]interface{}{"w": 5})
	// Establish a last point so cross-push cases bite.
	resp, raw := post(t, ts.URL+"/v1/stream/"+id+"/points",
		map[string]interface{}{"points": [][3]float64{{0, 0, 0}, {1, 0, 1}}})
	if resp.StatusCode != 200 {
		t.Fatalf("seed push: %d %s", resp.StatusCode, raw)
	}
	cases := []struct {
		name   string
		pts    [][3]float64
		code   string
		defect string
	}{
		{"unordered", [][3]float64{{2, 0, 5}, {3, 0, 2}}, codePointsUnordered, "unordered"},
		{"duplicate", [][3]float64{{2, 0, 1}}, codePointsDuplicate, "duplicate"},
		{"too-short", [][3]float64{}, codePointsTooShort, "too_short"},
	}
	for _, tc := range cases {
		resp, raw := post(t, ts.URL+"/v1/stream/"+id+"/points",
			map[string]interface{}{"points": tc.pts})
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, raw)
			continue
		}
		if _, code := errorBody(t, raw); code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, code, tc.code)
		}
		if got := reg.Counter("rlts_ingest_rejects_total", "", obs.L("defect", tc.defect)).Value(); got != 1 {
			t.Errorf("%s: reject counter = %d, want 1", tc.name, got)
		}
	}
}
