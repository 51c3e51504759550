package pretrained

import (
	"testing"

	"rlts"
)

func TestAllEmbeddedPoliciesLoad(t *testing.T) {
	entries, err := files.ReadDir("data")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 8 {
		t.Fatalf("%d embedded policies, want 8: %v", len(entries), entries)
	}
	for _, m := range rlts.Measures {
		for _, v := range []rlts.Variant{rlts.Online, rlts.Plus} {
			p, err := Load(m, v)
			if err != nil {
				t.Fatalf("Load(%v, %v): %v", m, v, err)
			}
			if p.Options().Measure != m || p.Options().Variant != v {
				t.Errorf("Load(%v, %v) returned options %+v", m, v, p.Options())
			}
		}
	}
}

func TestLoadedPolicySimplifies(t *testing.T) {
	p, err := Load(rlts.SED, rlts.Plus)
	if err != nil {
		t.Fatal(err)
	}
	tr := rlts.Generate(rlts.Geolife(), 99, 1, 400)[0]
	out, err := p.Simplifier().Simplify(tr, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) > 40 || !out.IsSimplificationOf(tr) {
		t.Error("embedded policy produced invalid simplification")
	}
	// And it should be competitive: not wildly worse than Bottom-Up.
	e, err := rlts.Error(rlts.SED, tr, out)
	if err != nil {
		t.Fatal(err)
	}
	bu, err := rlts.BottomUp(rlts.SED).Simplify(tr, 40)
	if err != nil {
		t.Fatal(err)
	}
	be, err := rlts.Error(rlts.SED, tr, bu)
	if err != nil {
		t.Fatal(err)
	}
	if e > 2*be+1 {
		t.Errorf("embedded RLTS+ error %v vs Bottom-Up %v — more than 2x worse", e, be)
	}
}

func TestLoadUnsupportedVariant(t *testing.T) {
	if _, err := Load(rlts.SED, rlts.PlusPlus); err == nil {
		t.Error("PlusPlus variant should not be embedded")
	}
}
