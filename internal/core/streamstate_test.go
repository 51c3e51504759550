package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"rlts/internal/errm"
	"rlts/internal/geo"
	"rlts/internal/rl"
)

// samePoints compares two snapshots bit for bit.
func samePoints(a, b []geo.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) ||
			math.Float64bits(a[i].T) != math.Float64bits(b[i].T) {
			return false
		}
	}
	return true
}

// resumeAt runs a streamer over tr but at push index cut exports its
// state, round-trips it through the binary codec, and continues on the
// rehydrated copy. seed seeds both the original and the fast-forwarded
// resume RNG.
func resumeAt(t *testing.T, opts Options, w int, tr []geo.Point, sample bool, seed int64, cut int) []geo.Point {
	t.Helper()
	p := streamPolicy(t, opts)
	var r *rand.Rand
	if sample {
		r = rand.New(rand.NewSource(seed))
	}
	s, err := NewStreamer(p, w, opts, sample, r)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range tr {
		if i == cut {
			raw := s.ExportState().AppendBinary(nil)
			st, err := DecodeStreamerState(raw)
			if err != nil {
				t.Fatalf("cut %d: decode: %v", cut, err)
			}
			var rr *rand.Rand
			if sample {
				rr = rand.New(rand.NewSource(seed))
			}
			s, err = ResumeStreamer(p, opts, st, rr)
			if err != nil {
				t.Fatalf("cut %d: resume: %v", cut, err)
			}
		}
		s.Push(pt)
	}
	return s.Snapshot()
}

// TestStreamerResumeBitIdentical is the core durability contract: a
// streamer spilled and rehydrated at ANY push boundary — mid buffer
// fill, mid pending skip, right after a drop — produces a snapshot
// bit-identical to the uninterrupted run, in greedy and sampled modes.
func TestStreamerResumeBitIdentical(t *testing.T) {
	const w = 8
	tr := testTraj(91, 120)
	for _, j := range []int{0, 2} {
		for _, sample := range []bool{false, true} {
			opts := Options{Measure: errm.SED, Variant: Online, K: 3, J: j}
			seed := int64(17)
			p := streamPolicy(t, opts)
			var r *rand.Rand
			if sample {
				r = rand.New(rand.NewSource(seed))
			}
			base, err := NewStreamer(p, w, opts, sample, r)
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range tr {
				base.Push(pt)
			}
			want := base.Snapshot()
			for cut := 0; cut <= len(tr); cut++ {
				got := resumeAt(t, opts, w, tr, sample, seed, cut)
				if !samePoints(got, want) {
					t.Fatalf("J=%d sample=%v: resume at push %d diverged:\n got %v\nwant %v",
						j, sample, cut, got, want)
				}
			}
		}
	}
}

// TestStreamerResumeContinuesCounters: seen/skipped/draws carry over so
// downstream accounting (push responses, metrics) stays cumulative.
func TestStreamerResumeContinuesCounters(t *testing.T) {
	opts := Options{Measure: errm.SED, Variant: Online, K: 3, J: 2}
	p := streamPolicy(t, opts)
	tr := testTraj(92, 100)
	s, err := NewStreamer(p, 6, opts, true, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range tr[:60] {
		s.Push(pt)
	}
	st := s.ExportState()
	if st.Seen != 60 {
		t.Fatalf("exported seen = %d", st.Seen)
	}
	res, err := ResumeStreamer(p, opts, st, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Seen() != s.Seen() || res.Skipped() != s.Skipped() || res.BufferSize() != s.BufferSize() {
		t.Fatalf("resumed counters differ: seen %d/%d skipped %d/%d buffered %d/%d",
			res.Seen(), s.Seen(), res.Skipped(), s.Skipped(), res.BufferSize(), s.BufferSize())
	}
	l1, ok1 := s.Last()
	l2, ok2 := res.Last()
	if ok1 != ok2 || !l1.Equal(l2) {
		t.Fatal("resumed last point differs")
	}
}

func validState(t *testing.T) (*StreamerState, Options) {
	t.Helper()
	opts := Options{Measure: errm.SED, Variant: Online, K: 3, J: 2}
	p := streamPolicy(t, opts)
	s, err := NewStreamer(p, 6, opts, true, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range testTraj(93, 40) {
		s.Push(pt)
	}
	return s.ExportState(), opts
}

func TestResumeStreamerRejectsCorruptState(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(st *StreamerState)
	}{
		{"tiny W", func(st *StreamerState) { st.W = 1 }},
		{"negative skip", func(st *StreamerState) { st.Skip = -1 }},
		{"skip beyond J", func(st *StreamerState) { st.Skip = 5 }},
		{"draws without sampling", func(st *StreamerState) { st.Sample = false; st.Draws = 3 }},
		{"buffer/seen mismatch", func(st *StreamerState) { st.Seen = 3 }},
		{"buffer beyond budget", func(st *StreamerState) { st.W = len(st.Entries) - 1 }},
		{"endpoints dropped", func(st *StreamerState) { st.Entries = st.Entries[:1]; st.Entries[0].HeapPos = -1 }},
		{"NaN error estimate", func(st *StreamerState) { st.ErrEst = math.NaN() }},
		{"negative error estimate", func(st *StreamerState) { st.ErrEst = -1 }},
		{"heap slot out of range", func(st *StreamerState) {
			for i := range st.Entries {
				if st.Entries[i].HeapPos >= 0 {
					st.Entries[i].HeapPos += 100 // beyond the member count
					break
				}
			}
		}},
		{"seen without last", func(st *StreamerState) { st.HasLast = false }},
		{"non-finite last", func(st *StreamerState) { st.Last.X = math.NaN() }},
		{"non-finite buffered point", func(st *StreamerState) { st.Entries[2].P.Y = math.Inf(1) }},
		{"NaN drop value", func(st *StreamerState) { st.Entries[2].Value = math.NaN() }},
		{"indices out of order", func(st *StreamerState) { st.Entries[2].Index = st.Entries[1].Index }},
		{"index beyond seen", func(st *StreamerState) { st.Entries[len(st.Entries)-1].Index = 10000 }},
		{"timestamps out of order", func(st *StreamerState) { st.Entries[2].P.T = st.Entries[0].P.T }},
		{"last precedes tail", func(st *StreamerState) { st.Last.T = st.Entries[0].P.T }},
		{"heap slot duplicated", func(st *StreamerState) {
			set := false
			for i := range st.Entries {
				if st.Entries[i].HeapPos == 0 {
					if set {
						t.Fatal("two roots in dump")
					}
					set = true
				}
			}
			for i := range st.Entries {
				if st.Entries[i].HeapPos == 1 {
					st.Entries[i].HeapPos = 0
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, opts := validState(t)
			c.corrupt(st)
			p := streamPolicy(t, opts)
			if _, err := ResumeStreamer(p, opts, st, rand.New(rand.NewSource(1))); err == nil {
				t.Fatal("corrupt state resumed without error")
			}
		})
	}
	// And the uncorrupted control resumes fine.
	st, opts := validState(t)
	if _, err := ResumeStreamer(streamPolicy(t, opts), opts, st, rand.New(rand.NewSource(1))); err != nil {
		t.Fatalf("control state rejected: %v", err)
	}
}

// TestDecodeStreamerStateTotality: every truncation of a valid encoding
// and a sweep of bit flips either decode to an error or to a state —
// never a panic — and truncations always error.
func TestDecodeStreamerStateTotality(t *testing.T) {
	st, _ := validState(t)
	raw := st.AppendBinary(nil)
	if _, err := DecodeStreamerState(raw); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
	for n := 0; n < len(raw); n++ {
		if _, err := DecodeStreamerState(raw[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	for i := 0; i < len(raw); i++ {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xff
		_, _ = DecodeStreamerState(mut) // must not panic
	}
	if _, err := DecodeStreamerState(append(raw, 0)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
}

// TestStreamerStateRoundTrip: the codec preserves every field exactly.
func TestStreamerStateRoundTrip(t *testing.T) {
	st, _ := validState(t)
	got, err := DecodeStreamerState(st.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.W != st.W || got.Sample != st.Sample || got.Seen != st.Seen ||
		got.Skip != st.Skip || got.Skipped != st.Skipped || got.Draws != st.Draws ||
		got.HasLast != st.HasLast || !got.Last.Equal(st.Last) {
		t.Fatalf("header differs: %+v vs %+v", got, st)
	}
	if len(got.Entries) != len(st.Entries) {
		t.Fatalf("entry count %d vs %d", len(got.Entries), len(st.Entries))
	}
	for i := range st.Entries {
		a, b := got.Entries[i], st.Entries[i]
		if a.Index != b.Index || !a.P.Equal(b.P) || a.HeapPos != b.HeapPos ||
			math.Float64bits(a.Value) != math.Float64bits(b.Value) {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a, b)
		}
	}
	var empty StreamerState
	empty.W = 2
	got, err = DecodeStreamerState(empty.AppendBinary(nil))
	if err != nil || len(got.Entries) != 0 {
		t.Fatalf("empty state round-trip: %v", err)
	}
}

// FuzzDecodeStreamerState feeds arbitrary bytes to the streamer-state
// decoder, which a mutated spill envelope never reaches (its CRC fails
// first): it must decode or error, never panic, and anything it accepts
// must re-encode to bytes that decode and re-encode to themselves.
func FuzzDecodeStreamerState(f *testing.F) {
	opts := Options{Measure: errm.SED, Variant: Online, K: 3, J: 2}
	p, err := rl.NewPolicy(opts.StateSize(), opts.NumActions(), 8, rand.New(rand.NewSource(3)))
	if err != nil {
		f.Fatal(err)
	}
	s, err := NewStreamer(p, 6, opts, true, rand.New(rand.NewSource(1)))
	if err != nil {
		f.Fatal(err)
	}
	for _, pt := range testTraj(93, 40) {
		s.Push(pt)
	}
	valid := s.ExportState().AppendBinary(nil)
	// Version 1 is version 2 without the error estimate (bytes 41..48).
	v1 := append(binary.LittleEndian.AppendUint32(nil, 1), valid[4:41]...)
	v1 = append(v1, valid[49:]...)
	if _, err := DecodeStreamerState(v1); err != nil {
		f.Fatalf("version-1 seed rejected: %v", err)
	}
	f.Add(valid)
	f.Add(v1)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeStreamerState(data)
		if err != nil {
			return
		}
		enc := st.AppendBinary(nil)
		again, err := DecodeStreamerState(enc)
		if err != nil {
			t.Fatalf("re-encoded state rejected: %v", err)
		}
		if !bytes.Equal(again.AppendBinary(nil), enc) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
