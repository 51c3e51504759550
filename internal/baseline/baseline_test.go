package baseline

import (
	"strings"
	"testing"
)

// TestLookupEveryName: each accepted name is lower-case, belongs to one
// entry only and resolves to it; names outside the catalogue, the paper
// names' own casing included, resolve to nothing.
func TestLookupEveryName(t *testing.T) {
	owner := map[string]string{}
	for i := range All {
		for _, n := range All[i].Names {
			if prev, dup := owner[n]; dup {
				t.Errorf("%q names both %s and %s", n, prev, All[i].Name)
			}
			owner[n] = All[i].Name
			if n != strings.ToLower(n) {
				t.Errorf("%q is not lower-case", n)
			}
			if got := Lookup(n); got != &All[i] {
				t.Errorf("Lookup(%q) = %v, want %s", n, got, All[i].Name)
			}
		}
	}
	for _, n := range []string{"", "Bottom-Up", "rlts", "bottom_up"} {
		if got := Lookup(n); got != nil {
			t.Errorf("Lookup(%q) = %s, want nil", n, got.Name)
		}
	}
}
