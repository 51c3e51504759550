package traj

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rlts/internal/geo"
)

func line(n int) Trajectory {
	t := make(Trajectory, n)
	for i := range t {
		t[i] = geo.Pt(float64(i), 0, float64(i))
	}
	return t
}

func TestLenDurationPathLength(t *testing.T) {
	tr := line(5)
	if tr.Len() != 5 {
		t.Errorf("Len = %d, want 5", tr.Len())
	}
	if tr.Duration() != 4 {
		t.Errorf("Duration = %v, want 4", tr.Duration())
	}
	if tr.PathLength() != 4 {
		t.Errorf("PathLength = %v, want 4", tr.PathLength())
	}
	var empty Trajectory
	if empty.Duration() != 0 || empty.PathLength() != 0 {
		t.Error("empty trajectory should have zero duration and length")
	}
}

func TestValidate(t *testing.T) {
	if err := line(5).Validate(); err != nil {
		t.Errorf("valid trajectory: %v", err)
	}
	bad := line(5)
	bad[3].T = bad[2].T // duplicate timestamp
	if err := bad.Validate(); err == nil {
		t.Error("unordered timestamps not rejected")
	}
	nan := line(5)
	nan[1].X = math.NaN()
	if err := nan.Validate(); err == nil {
		t.Error("NaN not rejected")
	}
}

func TestPick(t *testing.T) {
	tr := line(10)
	s := tr.Pick([]int{0, 3, 9})
	if s.Len() != 3 || !s[1].Equal(tr[3]) {
		t.Fatalf("Pick wrong: %v", s)
	}
	if !s.IsSimplificationOf(tr) {
		t.Error("Pick result not a simplification")
	}
	defer func() {
		if recover() == nil {
			t.Error("non-increasing Pick did not panic")
		}
	}()
	tr.Pick([]int{3, 3})
}

func TestIsSimplificationOf(t *testing.T) {
	tr := line(6)
	tests := []struct {
		name string
		s    Trajectory
		want bool
	}{
		{"identity", append(Trajectory(nil), tr...), true},
		{"endpoints only", Trajectory{tr[0], tr[5]}, true},
		{"subsequence", Trajectory{tr[0], tr[2], tr[4], tr[5]}, true},
		{"missing last", Trajectory{tr[0], tr[3]}, false},
		{"missing first", Trajectory{tr[1], tr[5]}, false},
		{"foreign point", Trajectory{tr[0], geo.Pt(99, 99, 2.5), tr[5]}, false},
		{"too short", Trajectory{tr[0]}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.IsSimplificationOf(tr); got != tc.want {
				t.Errorf("IsSimplificationOf = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSummarize(t *testing.T) {
	ts := []Trajectory{line(5), line(3)}
	s := Summarize(ts)
	if s.NumTrajectories != 2 || s.TotalPoints != 8 {
		t.Errorf("counts wrong: %+v", s)
	}
	if s.AvgPoints != 4 {
		t.Errorf("AvgPoints = %v, want 4", s.AvgPoints)
	}
	if s.MinSampleRate != 1 || s.MaxSampleRate != 1 || s.AvgSampleRate != 1 {
		t.Errorf("sample rates wrong: %+v", s)
	}
	if s.AvgDistance != 1 {
		t.Errorf("AvgDistance = %v, want 1", s.AvgDistance)
	}
	if !strings.Contains(s.String(), "trajectories") {
		t.Error("String() missing content")
	}
	if z := Summarize(nil); z.NumTrajectories != 0 {
		t.Error("empty Summarize not zero")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ts := []Trajectory{line(4), {geo.Pt(1.5, -2.25, 0), geo.Pt(3, 4, 10.5)}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ts) {
		t.Fatalf("got %d trajectories, want %d", len(got), len(ts))
	}
	for i := range ts {
		if !got[i].Equal(ts[i]) {
			t.Errorf("trajectory %d differs: got %v want %v", i, got[i], ts[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name, in string
	}{
		{"bad x", "0,abc,0,0\n"},
		{"bad y", "0,1,abc,0\n"},
		{"bad t", "0,1,2,abc\n"},
		{"wrong fields", "0,1,2\n"},
		{"unordered", "0,0,0,5\n0,1,1,3\n"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tc.in)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestReadCSVHeaderOptional(t *testing.T) {
	with := "traj_id,x,y,t\n0,1,2,3\n0,2,3,4\n"
	without := "0,1,2,3\n0,2,3,4\n"
	a, err := ReadCSV(strings.NewReader(with))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadCSV(strings.NewReader(without))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || len(b) != 1 || !a[0].Equal(b[0]) {
		t.Error("header handling differs")
	}
}

func TestPickPreservesSimplificationProperty(t *testing.T) {
	f := func(raw []bool) bool {
		n := len(raw) + 2
		tr := line(n)
		idx := []int{0}
		for i, keep := range raw {
			if keep {
				idx = append(idx, i+1)
			}
		}
		idx = append(idx, n-1)
		return tr.Pick(idx).IsSimplificationOf(tr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
