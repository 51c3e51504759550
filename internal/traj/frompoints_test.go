package traj

import (
	"errors"
	"math"
	"testing"
)

func TestFromPoints(t *testing.T) {
	got, err := FromPoints([][3]float64{{0, 0, 0}, {1, 2, 1}, {3, 4, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || got[1].X != 1 || got[1].Y != 2 || got[1].T != 1 {
		t.Fatalf("unexpected trajectory: %v", got)
	}

	cases := []struct {
		name   string
		points [][3]float64
		want   error
	}{
		{"empty", nil, ErrTooShort},
		{"single point", [][3]float64{{0, 0, 0}}, ErrTooShort},
		{"NaN x", [][3]float64{{math.NaN(), 0, 0}, {1, 1, 1}}, ErrNotFinite},
		{"Inf y", [][3]float64{{0, 0, 0}, {1, math.Inf(1), 1}}, ErrNotFinite},
		{"NaN t", [][3]float64{{0, 0, math.NaN()}, {1, 1, 1}}, ErrNotFinite},
		{"backwards time", [][3]float64{{0, 0, 5}, {1, 1, 1}}, ErrNotOrdered},
		{"duplicate time", [][3]float64{{0, 0, 1}, {1, 1, 1}}, ErrNotOrdered},
	}
	for _, tc := range cases {
		if _, err := FromPoints(tc.points); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// FuzzFromPoints: the external-data constructor must never panic and must
// only produce trajectories its own Validate accepts.
func FuzzFromPoints(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
	f.Add(math.NaN(), 0.0, 0.0, 1.0, 1.0, 1.0)
	f.Add(0.0, 0.0, 5.0, 1.0, 1.0, 1.0)
	f.Add(math.Inf(1), math.Inf(-1), 0.0, 0.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, x1, y1, t1, x2, y2, t2 float64) {
		tr, err := FromPoints([][3]float64{{x1, y1, t1}, {x2, y2, t2}})
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("FromPoints accepted an invalid trajectory: %v", err)
		}
	})
}
