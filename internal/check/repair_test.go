package check

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"rlts/internal/gen"
	"rlts/internal/geo"
	"rlts/internal/traj"
)

// The repair pillar: traj.Repair is the only path by which dirty input
// reaches the strict ingest contract, so its postcondition — output
// always satisfies traj.Validate, clean input is untouched — is checked
// here against both corruption layered on the realistic gen profiles
// and the check pillar's own adversarial geometry families.

var repairCfgs = []traj.RepairConfig{
	{},                        // defaults: window 16, no speed gate
	{Window: 4, MaxSpeed: 60}, // shallow window + gate
	{Window: 64, MaxSpeed: 30, AverageDups: true},
	{Window: -1, MaxSpeed: 100}, // reordering disabled, gate only
}

// TestRepairOutputAlwaysStrict is the core contract: every dirty family
// over every profile, repaired under every config, yields points that
// FromPoints accepts (or ErrTooShort when the damage consumed nearly
// everything — never any other error, never a panic).
func TestRepairOutputAlwaysStrict(t *testing.T) {
	rounds := scaled(2)
	for _, prof := range gen.Profiles() {
		for _, fam := range gen.DirtyFamilies() {
			for round := 0; round < rounds; round++ {
				seed := int64(31000 + round)
				clean := gen.New(prof, seed).Trajectory(120)
				raw := gen.Raw(fam.Corrupt(clean, seed+1))
				for _, cfg := range repairCfgs {
					got, rep, err := traj.Repair(raw, cfg)
					if err != nil {
						t.Fatalf("%s/%s cfg=%+v: %v", prof.Name, fam.Name, cfg, err)
					}
					if verr := got.Validate(); verr != nil {
						t.Fatalf("%s/%s cfg=%+v: repaired output invalid: %v", prof.Name, fam.Name, cfg, verr)
					}
					if rep.Pushed != rep.Emitted+rep.Dropped() {
						t.Fatalf("%s/%s cfg=%+v: report unbalanced after flush: %+v", prof.Name, fam.Name, cfg, rep)
					}
				}
			}
		}
	}
}

// TestRepairTotalOnAdversarialGeometry feeds the pillar's own geometry
// families (extreme magnitudes, near-duplicate times, stationary runs)
// through corruption and repair: the defect classifier must stay total —
// overflowed implied speeds compare as +Inf and gate cleanly.
func TestRepairTotalOnAdversarialGeometry(t *testing.T) {
	fam, ok := gen.DirtyFamilyByName("kitchen-sink")
	if !ok {
		t.Fatal("kitchen-sink family missing")
	}
	for _, g := range generators {
		g := g
		t.Run(g.name, func(t *testing.T) {
			rounds := scaled(3)
			for round := 0; round < rounds; round++ {
				r := rand.New(rand.NewSource(int64(32000 + round)))
				tr := g.gen(r, 30+r.Intn(60))
				raw := gen.Raw(fam.Corrupt(tr, int64(round)))
				for _, cfg := range repairCfgs {
					got, rep, err := traj.Repair(raw, cfg)
					if err != nil {
						// A gate that (correctly) rejects a whole
						// extreme-magnitude family as outliers is a
						// legal total outcome — but only as ErrTooShort
						// with balanced accounting.
						if !errors.Is(err, traj.ErrTooShort) {
							t.Fatalf("%s cfg=%+v: %v", g.name, cfg, err)
						}
						if rep.Pushed != rep.Emitted+rep.Dropped() {
							t.Fatalf("%s cfg=%+v: unbalanced report: %+v", g.name, cfg, rep)
						}
						continue
					}
					if verr := got.Validate(); verr != nil {
						t.Fatalf("%s cfg=%+v: invalid output: %v", g.name, cfg, verr)
					}
				}
			}
		})
	}
}

// TestRepairCleanBitIdentity: on already-valid input, gate-free repair
// is the identity — every adversarial family passes through bit-for-bit
// with a zero-defect report. The speed gate is deliberately excluded:
// families like near-dup-times have legitimate implied speeds of ~1e12,
// so a gate firing there is correct behaviour, not a defect (gated
// identity on realistic speeds is asserted by the server tests).
func TestRepairCleanBitIdentity(t *testing.T) {
	cleanCfgs := []traj.RepairConfig{
		{},
		{Window: 4},
		{Window: 64, AverageDups: true},
		{Window: -1},
	}
	for _, g := range generators {
		g := g
		t.Run(g.name, func(t *testing.T) {
			rounds := scaled(3)
			for round := 0; round < rounds; round++ {
				r := rand.New(rand.NewSource(int64(33000 + round)))
				tr := g.gen(r, 20+r.Intn(40))
				for _, cfg := range cleanCfgs {
					got, rep, err := traj.Repair(gen.Raw([]geo.Point(tr)), cfg)
					if err != nil {
						t.Fatalf("%s cfg=%+v: %v", g.name, cfg, err)
					}
					if rep.NonFinite+rep.Late+rep.Reordered+rep.Duplicates+rep.Outliers != 0 {
						t.Fatalf("%s cfg=%+v: clean input reported defects: %+v", g.name, cfg, rep)
					}
					if len(got) != len(tr) {
						t.Fatalf("%s cfg=%+v: length %d -> %d", g.name, cfg, len(tr), len(got))
					}
					for i := range got {
						if math.Float64bits(got[i].X) != math.Float64bits(tr[i].X) ||
							math.Float64bits(got[i].Y) != math.Float64bits(tr[i].Y) ||
							math.Float64bits(got[i].T) != math.Float64bits(tr[i].T) {
							t.Fatalf("%s cfg=%+v: point %d altered: %v -> %v", g.name, cfg, i, tr[i], got[i])
						}
					}
				}
			}
		})
	}
}

// TestRepairChunkingAndResumeDifferential: the streaming Repairer must
// emit the same sequence whatever the push chunking, and an
// export/resume cut at any position must be invisible — the same
// bit-identity contract the stream spill path relies on.
func TestRepairChunkingAndResumeDifferential(t *testing.T) {
	fam, _ := gen.DirtyFamilyByName("kitchen-sink")
	rounds := scaled(4)
	for round := 0; round < rounds; round++ {
		r := rand.New(rand.NewSource(int64(34000 + round)))
		prof := gen.Profiles()[round%len(gen.Profiles())]
		clean := gen.New(prof, int64(round)).Trajectory(80 + r.Intn(80))
		pts := fam.Corrupt(clean, int64(round)+5)
		cfg := traj.RepairConfig{Window: 1 + r.Intn(32), MaxSpeed: 20 + r.Float64()*80,
			AverageDups: round%2 == 0}

		// Reference: one point at a time, no interruption.
		ref := traj.NewRepairer(cfg)
		var want []geo.Point
		for _, p := range pts {
			want = append(want, ref.Push(p)...)
		}
		want = append(want, ref.Flush()...)

		// Chunked with a resume cut at a random position.
		cut := r.Intn(len(pts) + 1)
		a := traj.NewRepairer(cfg)
		var got []geo.Point
		for _, p := range pts[:cut] {
			got = append(got, a.Push(p)...)
		}
		blob := a.ExportState().AppendBinary(nil)
		st, err := traj.DecodeRepairState(blob)
		if err != nil {
			t.Fatalf("round %d: decode: %v", round, err)
		}
		b, err := traj.ResumeRepairer(st)
		if err != nil {
			t.Fatalf("round %d: resume: %v", round, err)
		}
		for _, p := range pts[cut:] {
			got = append(got, b.Push(p)...)
		}
		got = append(got, b.Flush()...)

		if len(got) != len(want) {
			t.Fatalf("round %d cut=%d: emitted %d, want %d", round, cut, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i].X) != math.Float64bits(want[i].X) ||
				math.Float64bits(got[i].Y) != math.Float64bits(want[i].Y) ||
				math.Float64bits(got[i].T) != math.Float64bits(want[i].T) {
				t.Fatalf("round %d cut=%d: emission %d differs: %v vs %v", round, cut, i, got[i], want[i])
			}
		}
		if ar, br := ref.Report(), b.Report(); ar != br {
			t.Fatalf("round %d cut=%d: reports differ: %+v vs %+v", round, cut, ar, br)
		}
	}
}
