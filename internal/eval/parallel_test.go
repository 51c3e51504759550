package eval

import (
	"errors"
	"testing"

	"rlts/internal/core"
	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/traj"
)

func TestRunSetParallelMatchesSerial(t *testing.T) {
	c := quickCtx()
	data := c.EvalData(gen.Truck(), 8, 150)
	a := BatchBaselines(errm.SED)[1] // Bottom-Up: deterministic
	serial, err := RunSet(a, data, 0.15, errm.SED, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSet(a, data, 0.15, errm.SED, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.MeanErr != parallel.MeanErr {
		t.Errorf("mean error differs: serial %v, parallel %v", serial.MeanErr, parallel.MeanErr)
	}
	if serial.Points != parallel.Points {
		t.Errorf("points differ: %d vs %d", serial.Points, parallel.Points)
	}
}

func TestRunSetParallelRLTSDeterministic(t *testing.T) {
	c := quickCtx()
	tr, err := c.Policy(core.DefaultOptions(errm.SED, core.Online))
	if err != nil {
		t.Fatal(err)
	}
	data := c.EvalData(gen.Geolife(), 8, 120)
	a := RLTSAlgorithmConcurrent(tr, 5)
	r1, err := RunSet(a, data, 0.1, errm.SED, 4)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSet(a, data, 0.1, errm.SED, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.MeanErr != r2.MeanErr {
		t.Errorf("parallel RLTS not deterministic: %v vs %v", r1.MeanErr, r2.MeanErr)
	}
}

func TestRunSetParallelPropagatesErrors(t *testing.T) {
	data := []traj.Trajectory{
		gen.New(gen.Geolife(), 1).Trajectory(50),
		gen.New(gen.Geolife(), 2).Trajectory(50),
	}
	bad := Algorithm{Name: "bad", Run: func(t traj.Trajectory, w int) ([]int, error) {
		return nil, errors.New("boom")
	}}
	for _, workers := range []int{1, 4} {
		if _, err := RunSet(bad, data, 0.1, errm.SED, workers); err == nil {
			t.Errorf("error not propagated at %d workers", workers)
		}
	}
}
