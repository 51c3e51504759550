package traj

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV checks the CSV reader never panics and that everything it
// accepts round-trips through WriteCSV.
func FuzzReadCSV(f *testing.F) {
	f.Add("traj_id,x,y,t\n0,1,2,3\n0,2,3,4\n")
	f.Add("0,1,2,3\n1,9,9,9\n1,10,10,10\n")
	f.Add("0,1e300,-1e300,0\n0,0,0,1\n")
	f.Add(",,,\n")
	f.Add("0,NaN,0,0\n")
	f.Fuzz(func(t *testing.T, in string) {
		ts, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		for _, tr := range ts {
			if err := tr.Validate(); err != nil {
				t.Fatalf("accepted invalid trajectory: %v", err)
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, ts); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back) != len(ts) {
			t.Fatalf("round trip changed count: %d -> %d", len(ts), len(back))
		}
	})
}
