package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"rlts/internal/errm"
	"rlts/internal/geo"
	"rlts/internal/rl"
	"rlts/internal/traj"
)

func streamPolicy(t *testing.T, opts Options) *rl.Policy {
	t.Helper()
	p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 8, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStreamerKeepsBudget(t *testing.T) {
	opts := DefaultOptions(errm.SED, Online)
	p := streamPolicy(t, opts)
	s, err := NewStreamer(p, 10, opts, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTraj(31, 200)
	for _, pt := range tr {
		s.Push(pt)
		if s.BufferSize() > 10 {
			t.Fatalf("buffer grew to %d", s.BufferSize())
		}
	}
	if s.Seen() != 200 {
		t.Errorf("Seen = %d", s.Seen())
	}
	snap := s.Snapshot()
	if len(snap) > 11 { // W plus possibly the appended last point
		t.Errorf("snapshot %d points", len(snap))
	}
	if !snap[len(snap)-1].Equal(tr[len(tr)-1]) {
		t.Error("snapshot does not end at the last observation")
	}
	if !snap[0].Equal(tr[0]) {
		t.Error("snapshot does not start at the first observation")
	}
}

func TestStreamerWithSkip(t *testing.T) {
	opts := Options{Measure: errm.SED, Variant: Online, K: 3, J: 2}
	p := streamPolicy(t, opts)
	s, err := NewStreamer(p, 8, opts, true, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	tr := testTraj(33, 300)
	for _, pt := range tr {
		s.Push(pt)
	}
	snap := s.Snapshot()
	if len(snap) < 2 || len(snap) > 9 {
		t.Errorf("snapshot %d points", len(snap))
	}
	if !snap[len(snap)-1].Equal(tr[len(tr)-1]) {
		t.Error("snapshot does not end at the last observation")
	}
}

func TestStreamerMatchesSimplifyWithoutSkip(t *testing.T) {
	// Greedy, no-skip streaming must agree with the slice-based Simplify.
	opts := DefaultOptions(errm.PED, Online)
	p := streamPolicy(t, opts)
	tr := testTraj(35, 120)
	const w = 12
	kept, err := Simplify(p, tr, w, opts, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamer(p, w, opts, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range tr {
		s.Push(pt)
	}
	snap := s.Snapshot()
	if len(snap) != len(kept) {
		t.Fatalf("stream %d points, simplify %d", len(snap), len(kept))
	}
	for i, ix := range kept {
		if !snap[i].Equal(tr[ix]) {
			t.Fatalf("point %d differs: stream %v, simplify %v", i, snap[i], tr[ix])
		}
	}
}

func TestStreamerSmallestBudget(t *testing.T) {
	// W=2 is the smallest legal budget: the buffer only ever holds the
	// endpoints plus the incoming point, so every interior point must be
	// dropped (or skipped) immediately. Exercises the under-three-point
	// valuation guard in Push.
	opts := DefaultOptions(errm.SED, Online)
	p := streamPolicy(t, opts)
	s, err := NewStreamer(p, 2, opts, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTraj(41, 50)
	for _, pt := range tr {
		s.Push(pt)
		if s.BufferSize() > 2 {
			t.Fatalf("buffer grew to %d with W=2", s.BufferSize())
		}
	}
	snap := s.Snapshot()
	if len(snap) < 2 || len(snap) > 3 {
		t.Fatalf("snapshot %d points with W=2", len(snap))
	}
	if !snap[0].Equal(tr[0]) || !snap[len(snap)-1].Equal(tr[len(tr)-1]) {
		t.Error("W=2 snapshot does not span first..last observation")
	}
}

func TestStreamerSnapshotFewerPointsThanBudget(t *testing.T) {
	// Pushing fewer points than W must return exactly those points: no
	// padding, no decisions taken.
	opts := DefaultOptions(errm.SED, Online)
	p := streamPolicy(t, opts)
	s, err := NewStreamer(p, 20, opts, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTraj(43, 7)
	for _, pt := range tr {
		s.Push(pt)
	}
	snap := s.Snapshot()
	if len(snap) != 7 {
		t.Fatalf("snapshot %d points, want all 7", len(snap))
	}
	for i := range snap {
		if !snap[i].Equal(tr[i]) {
			t.Fatalf("point %d altered: %v vs %v", i, snap[i], tr[i])
		}
	}
}

func TestStreamerSnapshotDeterministicAndIdempotent(t *testing.T) {
	// With sampling off, two streamers fed the same points must produce
	// identical snapshots, and snapshotting must not perturb the stream:
	// interleaved mid-stream snapshots leave the final result unchanged.
	opts := DefaultOptions(errm.DAD, Online)
	p := streamPolicy(t, opts)
	tr := testTraj(47, 150)
	const w = 9

	run := func(snapEvery int) []string {
		s, err := NewStreamer(p, w, opts, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range tr {
			s.Push(pt)
			if snapEvery > 0 && i%snapEvery == 0 {
				s.Snapshot()
			}
		}
		var out []string
		for _, pt := range s.Snapshot() {
			out = append(out, pt.String())
		}
		return out
	}

	plain := run(0)
	interleaved := run(10)
	if len(plain) != len(interleaved) {
		t.Fatalf("snapshot lengths differ: %d vs %d", len(plain), len(interleaved))
	}
	for i := range plain {
		if plain[i] != interleaved[i] {
			t.Fatalf("point %d differs: %s vs %s", i, plain[i], interleaved[i])
		}
	}
	// Back-to-back snapshots of the same streamer are identical too.
	s, err := NewStreamer(p, w, opts, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range tr {
		s.Push(pt)
	}
	a, b := s.Snapshot(), s.Snapshot()
	if len(a) != len(b) {
		t.Fatalf("repeat snapshot changed length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("repeat snapshot changed point %d", i)
		}
	}
}

func TestStreamerSnapshotAfterSkipAtTail(t *testing.T) {
	// Regression: when the final pushed point is swallowed by a skip
	// action, Snapshot appends it after the buffered tail. That appended
	// point must strictly advance the tail's timestamp so the snapshot
	// stays a valid traj.FromPoints input. Seed 3 is known (and pinned by
	// the assertion below) to end this stream with a skip.
	opts := Options{Measure: errm.SED, Variant: Online, K: 3, J: 2}
	p := streamPolicy(t, opts)
	tr := testTraj(33, 60)
	s, err := NewStreamer(p, 6, opts, true, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range tr {
		s.Push(pt)
	}
	snap := s.Snapshot()
	if len(snap) != s.BufferSize()+1 {
		t.Fatalf("seed drifted: final point not skipped (buffer %d, snapshot %d)", s.BufferSize(), len(snap))
	}
	if !snap[len(snap)-1].Equal(tr[len(tr)-1]) {
		t.Error("snapshot does not end at the skipped last observation")
	}
	raw := make([][3]float64, len(snap))
	for i, q := range snap {
		raw[i] = [3]float64{q.X, q.Y, q.T}
	}
	if _, err := traj.FromPoints(raw); err != nil {
		t.Errorf("snapshot after tail skip is not a valid trajectory: %v", err)
	}
}

func TestStreamerDiscardsInvalidObservations(t *testing.T) {
	// Duplicate/backwards timestamps and non-finite points are dropped at
	// Push so the snapshot contract (strictly increasing, finite) holds
	// for any input sequence.
	opts := DefaultOptions(errm.SED, Online)
	p := streamPolicy(t, opts)
	s, err := NewStreamer(p, 4, opts, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	pts := []geo.Point{
		geo.Pt(0, 0, 0),
		geo.Pt(1, 0, 1),
		geo.Pt(5, 5, 1),           // duplicate timestamp: dropped
		geo.Pt(2, 0, 0.5),         // backwards timestamp: dropped
		geo.Pt(math.NaN(), 0, 2),  // non-finite: dropped
		geo.Pt(3, 0, math.Inf(1)), // non-finite: dropped
		geo.Pt(3, 0, 2),
		geo.Pt(4, 0, 3),
	}
	for _, pt := range pts {
		s.Push(pt)
	}
	if s.Seen() != 4 {
		t.Errorf("Seen = %d, want 4 accepted points", s.Seen())
	}
	snap := s.Snapshot()
	raw := make([][3]float64, len(snap))
	for i, q := range snap {
		raw[i] = [3]float64{q.X, q.Y, q.T}
	}
	got, err := traj.FromPoints(raw)
	if err != nil {
		t.Fatalf("snapshot invalid after garbage pushes: %v", err)
	}
	want := traj.Trajectory{geo.Pt(0, 0, 0), geo.Pt(1, 0, 1), geo.Pt(3, 0, 2), geo.Pt(4, 0, 3)}
	if !got.Equal(want) {
		t.Errorf("snapshot = %v, want %v", got, want)
	}
}

func TestStreamerValidation(t *testing.T) {
	opts := DefaultOptions(errm.SED, Online)
	p := streamPolicy(t, opts)
	if _, err := NewStreamer(p, 1, opts, false, nil); err == nil {
		t.Error("W=1 accepted")
	}
	batchOpts := DefaultOptions(errm.SED, Plus)
	pb := streamPolicy(t, batchOpts)
	if _, err := NewStreamer(pb, 5, batchOpts, false, nil); err == nil {
		t.Error("batch variant accepted for streaming")
	}
	if _, err := NewStreamer(p, 5, opts, true, nil); err == nil {
		t.Error("sampling without rand accepted")
	}
}

// TestStreamerSetBudget: shrinking evicts lowest-valued points down to the
// new cap immediately; growing raises the cap and the buffer refills as
// the stream advances. The budget is never exceeded at any point, and a
// shrink folds the evicted values into the error estimate.
func TestStreamerSetBudget(t *testing.T) {
	opts := DefaultOptions(errm.SED, Online)
	p := streamPolicy(t, opts)
	s, err := NewStreamer(p, 20, opts, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTraj(37, 300)
	for _, pt := range tr[:100] {
		s.Push(pt)
	}
	if s.BufferSize() != 20 {
		t.Fatalf("buffer %d after fill, want 20", s.BufferSize())
	}
	if s.Budget() != 20 {
		t.Fatalf("Budget() = %d", s.Budget())
	}
	before := s.ErrEst()
	if err := s.SetBudget(8); err != nil {
		t.Fatal(err)
	}
	if s.BufferSize() != 8 {
		t.Fatalf("buffer %d after shrink to 8", s.BufferSize())
	}
	if s.ErrEst() < before {
		t.Fatalf("ErrEst went backwards on shrink: %g -> %g", before, s.ErrEst())
	}
	// Snapshot after shrink must still be a valid trajectory ending at the
	// last observation.
	snap := s.Snapshot()
	if err := traj.Trajectory(snap).Validate(); err != nil {
		t.Fatalf("snapshot after shrink invalid: %v", err)
	}
	// Grow back: the buffer refills to the new cap and never overshoots.
	if err := s.SetBudget(15); err != nil {
		t.Fatal(err)
	}
	for _, pt := range tr[100:] {
		s.Push(pt)
		if s.BufferSize() > 15 {
			t.Fatalf("buffer %d exceeds grown budget 15", s.BufferSize())
		}
	}
	if s.BufferSize() != 15 {
		t.Fatalf("buffer %d after regrow and refill, want 15", s.BufferSize())
	}
	if err := s.SetBudget(1); err == nil {
		t.Fatal("SetBudget(1) accepted")
	}
}

// TestStreamerSetBudgetAfterSkip: a skip un-appends the pushed point and
// leaves the buffered tail in the value heap with a stale value until
// the next push. A shrink in that window (a fleet rebalance between two
// pushes) must pass over the tail, an endpoint, instead of dropping it
// (buffer.Drop panics on an endpoint).
func TestStreamerSetBudgetAfterSkip(t *testing.T) {
	opts := Options{Measure: errm.SED, Variant: Online, K: 3, J: 2}
	for seed := int64(0); seed < 20; seed++ {
		s, err := NewStreamer(streamPolicy(t, opts), 10, opts, true, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		tr := testTraj(seed, 200)
		i := 0
		for ; i < len(tr) && (i < 20 || s.skip == 0); i++ {
			s.Push(tr[i])
		}
		if s.skip == 0 {
			t.Fatalf("seed %d: no skip decision in %d pushes", seed, i)
		}
		tail := s.buf.Tail().Index
		if err := s.SetBudget(3); err != nil {
			t.Fatal(err)
		}
		if s.BufferSize() != 3 || s.buf.Head().Index != 0 || s.buf.Tail().Index != tail {
			t.Fatalf("seed %d: shrink kept %v, want 3 points from 0 to %d", seed, s.buf.Indices(), tail)
		}
		for ; i < len(tr); i++ {
			s.Push(tr[i])
		}
		if err := traj.Trajectory(s.Snapshot()).Validate(); err != nil {
			t.Fatalf("seed %d: snapshot after shrink invalid: %v", seed, err)
		}
	}
}

// TestStreamerSetBudgetResumeBitIdentical: a streamer whose budget was
// resized mid-stream spills and rehydrates bit-identically — the fleet
// rebalance / durable-store interaction.
func TestStreamerSetBudgetResumeBitIdentical(t *testing.T) {
	opts := Options{Measure: errm.SED, Variant: Online, K: 3, J: 2}
	tr := testTraj(41, 160)
	for _, sample := range []bool{false, true} {
		run := func(resumeAfterResize bool) []geo.Point {
			p := streamPolicy(t, opts)
			var r *rand.Rand
			if sample {
				r = rand.New(rand.NewSource(9))
			}
			s, err := NewStreamer(p, 12, opts, sample, r)
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range tr[:80] {
				s.Push(pt)
			}
			if err := s.SetBudget(6); err != nil {
				t.Fatal(err)
			}
			if err := s.SetBudget(9); err != nil {
				t.Fatal(err)
			}
			if resumeAfterResize {
				raw := s.ExportState().AppendBinary(nil)
				st, err := DecodeStreamerState(raw)
				if err != nil {
					t.Fatal(err)
				}
				var rr *rand.Rand
				if sample {
					rr = rand.New(rand.NewSource(9))
				}
				s, err = ResumeStreamer(p, opts, st, rr)
				if err != nil {
					t.Fatalf("resume after resize: %v", err)
				}
			}
			for _, pt := range tr[80:] {
				s.Push(pt)
			}
			if math.IsNaN(s.ErrEst()) {
				t.Fatal("NaN ErrEst")
			}
			return s.Snapshot()
		}
		want := run(false)
		got := run(true)
		if !samePoints(got, want) {
			t.Fatalf("sample=%v: resume after resize diverged", sample)
		}
	}
}

// TestStreamerPolicyPressure: zero while the buffer is filling, finite
// and non-negative once decisions are pending, and reading it never
// perturbs a sampled stream (no RNG draws consumed).
func TestStreamerPolicyPressure(t *testing.T) {
	opts := DefaultOptions(errm.SED, Online)
	p := streamPolicy(t, opts)
	r := rand.New(rand.NewSource(11))
	s, err := NewStreamer(p, 10, opts, true, r)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTraj(43, 120)
	for _, pt := range tr[:5] {
		s.Push(pt)
	}
	if v := s.PolicyPressure(); v != 0 {
		t.Fatalf("pressure %g during fill, want 0", v)
	}
	for _, pt := range tr[5:60] {
		s.Push(pt)
	}
	v := s.PolicyPressure()
	if math.IsNaN(v) || v < 0 {
		t.Fatalf("pressure %g out of range", v)
	}
	// Interleave pressure reads with pushes in one run and compare the
	// final snapshot against a read-free run: identical streams mean the
	// reads are side-effect free.
	run := func(read bool) []geo.Point {
		pp := streamPolicy(t, opts)
		ss, err := NewStreamer(pp, 10, opts, true, rand.New(rand.NewSource(13)))
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range tr {
			ss.Push(pt)
			if read && i%7 == 0 {
				ss.PolicyPressure()
			}
		}
		return ss.Snapshot()
	}
	if !samePoints(run(true), run(false)) {
		t.Fatal("PolicyPressure perturbed a sampled stream")
	}
}

// TestStreamerPolicyPressureSkipsTail: right after a skip the buffered
// tail keeps its stale heap slot until the next push (buffer.RemoveTail),
// but an endpoint is never a drop candidate, so the pressure must weigh
// only interior points. At every post-skip state of a seeded J=2
// streamer the pressure must equal the one built from the k lowest
// interior values; the run must include states where the stale tail
// ranks among the k lowest, or the check would be vacuous.
func TestStreamerPolicyPressureSkipsTail(t *testing.T) {
	const w = 30
	stale := 0
	for _, m := range errm.Measures {
		opts := Options{Measure: m, Variant: Online, K: 3, J: 2}
		p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 8, rand.New(rand.NewSource(17+int64(m))))
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStreamer(p, w, opts, true, rand.New(rand.NewSource(23)))
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range testTraj(31+int64(m), 400) {
			s.Push(pt)
			if s.buf.Tail().Index == s.Seen()-1 {
				continue // the point just pushed is buffered: no skip since
			}
			for _, c := range s.buf.KLowest(opts.K) {
				if c == s.buf.Tail() {
					stale++
				}
			}
			if got, want := s.PolicyPressure(), interiorPressure(s); got != want {
				t.Fatalf("%s point %d: pressure %g, want %g from interior points only", m, i, got, want)
			}
		}
	}
	if stale == 0 {
		t.Fatal("no post-skip state ranked the stale tail among the k lowest")
	}
	t.Logf("%d post-skip states ranked the stale tail among the k lowest", stale)
}

// interiorPressure recomputes PolicyPressure from first principles: the
// policy's drop probabilities over the k lowest interior values.
func interiorPressure(s *Streamer) float64 {
	var vals []float64
	for e := s.buf.Head().Next(); e != nil && e.Next() != nil; e = e.Next() {
		vals = append(vals, e.Value())
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	k := s.opts.K
	state := make([]float64, s.opts.StateSize())
	mask := make([]bool, s.opts.NumActions())
	n := min(len(vals), k)
	for a := 0; a < k; a++ {
		state[a], mask[a] = vals[n-1], a < n // padded like buildState
		if a < n {
			state[a] = vals[a]
		}
	}
	for a := k; a < len(mask); a++ {
		mask[a] = true // a stream's end is unbounded: every skip is legal
	}
	probs := s.p.Probs(state, mask, false)
	var v float64
	for a := 0; a < n; a++ {
		v += probs[a] * state[a]
	}
	return v
}

// TestStreamerPushAllocs holds a warm streamer's decision-phase Push to
// one allocation per point: the buffer entry, which Simplify allocates
// per point too. The state, mask and candidate list are scanner scratch.
func TestStreamerPushAllocs(t *testing.T) {
	tr := testTraj(4, 2000)
	for _, j := range []int{0, 2} {
		for _, sample := range []bool{false, true} {
			opts := Options{Measure: errm.SED, Variant: Online, K: 3, J: j}
			var r *rand.Rand
			if sample {
				r = rand.New(rand.NewSource(1))
			}
			s, err := NewStreamer(streamPolicy(t, opts), 50, opts, sample, r)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for ; i < 100; i++ {
				s.Push(tr[i])
			}
			allocs := testing.AllocsPerRun(1000, func() {
				s.Push(tr[i])
				i++
			})
			if allocs > 1 {
				t.Errorf("J=%d sample=%v: %.2f allocs per Push, want <= 1", j, sample, allocs)
			}
		}
	}
}
