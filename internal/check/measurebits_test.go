package check

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"rlts/internal/errm"
	"rlts/internal/gen"
	"rlts/internal/geo"
	"rlts/internal/traj"
)

// Measure-bits golden: the raw float64 bits of every measure at every
// granularity, pinned as literal digests. Each row is the SHA-256 of one
// measure over one input: SegmentError over every span, PointError over
// every interior point of every span, OnlineValue over every interior
// point, and the measure's geo primitive (plus TimeParam for SED and
// ClosestParam for PED) over every span against every point or motion
// segment of the trajectory, in and out of the span. The inputs are the
// seven adversarial families, one seeded Truck trajectory, and an
// overflow input (genOverflow) that reaches the fallbacks the families
// keep clear of: coordinate differences, time spans and speeds beyond
// MaxFloat64, and repeated timestamps. A NaN hashes as one canonical
// word, since its payload is not part of any measure's contract. A
// kernel rewrite that moves one last bit anywhere fails the row naming
// the measure and input. The digests are pinned on amd64, whose
// compiler does not fuse multiply-adds.
func TestGoldenMeasureBits(t *testing.T) {
	tests := []struct {
		Name   string
		Expect string
	}{
		{"DAD/collinear", "a1a5d1fe073f888566889f8ea1f00b802915b0ca09b456f19aa52d42e41e9f91"},
		{"DAD/extreme", "112270de1f5a0dd65dd02e7f54adab28c2338159433c348e3b0eb374153d4d5b"},
		{"DAD/huge", "0a9c2a567c3ad87239172dd343a8fec9541a950118ba42acc338fd9437823e0e"},
		{"DAD/near-dup-times", "1e58d84b1f621015e60f623c2deaa45dbfee52e80a308a97fe65c805ca197e55"},
		{"DAD/overflow", "a9fc81794e54169128e6a1aaaae915d6e078079f31ea1d4de183b55ce409729f"},
		{"DAD/random-walk", "8764e9ddf0282ce610987a9cc54408c52edaf64d5fe4f81ef846391fcf6dfb4c"},
		{"DAD/stationary", "aabf38cf09e55df0728ba91be2af5227a98c646c9752782e96bdb4fc07466e60"},
		{"DAD/truck", "af1b44a4025a51929c87b71a1d6acbffa171d4af2e5cc98703a40bd47c8903a8"},
		{"DAD/zigzag", "be38cb62f47457d693a88fb608f1173a6b75a764a0ce7f1d4e50b3f98be00f4a"},
		{"PED/collinear", "637a04ea69a181c38af9890d118778e82fc10465cb49b0e14aaedf47a7058f51"},
		{"PED/extreme", "8e494c4fb2916fede4acac1d86d78515db878cd936bc66d87d188f4e80d10833"},
		{"PED/huge", "bee97aa989f888fcadbbb76b2e16be7b5ddfb88370db1ddc78ee6f294464f10b"},
		{"PED/near-dup-times", "056d943bfa502c4fb64d3193992f417f1d553a9adf9d07b09b57452089148b8c"},
		{"PED/overflow", "adaf79aec4250ddabcdfe197fd067ccf4cc753d6a2fe1f7dea1b00e9b4648209"},
		{"PED/random-walk", "67f55a9ce90ed38c6f6196f4944ebaf9c04bbd10a4381471334f81b5284b4d47"},
		{"PED/stationary", "d304fd61e272548e31300a054909da3978a64aa23e59c17a2d68aced247bad26"},
		{"PED/truck", "7ee9b05695cf8029a4383cf27c1f497a83067cf8552190be71e71a6e1b28ed4c"},
		{"PED/zigzag", "babc4d27d3e791ce2d0d414f6319ea4659c33d9841bb5b366a62c2c42844fec0"},
		{"SAD/collinear", "e156add0366aa6a5dabd42a22123a3c1b6a6f8754d9f879ddb71af1c82932030"},
		{"SAD/extreme", "75f95ede2e16483c2e3c0900a9e00e854fb5253169afcdecbf3ab64d5bade77a"},
		{"SAD/huge", "e9f2c0d89b116456876c718ade7f7a90fa924cf74a55e79cd57c5c26afd130e4"},
		{"SAD/near-dup-times", "19f8dea85855808d491a5eedf6b48641acf34938d7ac85c0c70052a2c77a73e3"},
		{"SAD/overflow", "fc1c225866aab11644d9e46b822ad16b8a6e5513ed698170b6b0c4f60481734b"},
		{"SAD/random-walk", "df3859cf57740fccccf563613b162dd1febca36dc8e030e0b4b350875f447519"},
		{"SAD/stationary", "9af8ed72240726ada8b5616edd92c6846937294c3fd718bd73a0a4b1b5e7c24b"},
		{"SAD/truck", "d1129afdec7375f5ba9b9f898bc9c87682944eda47ecb52a3558fe183a63c5ae"},
		{"SAD/zigzag", "37e0b6bbe9e828af316e44d4bf8ee1fb17484bf1da263e4a73ab6beda49159f2"},
		{"SED/collinear", "f0a5a64bd769679cf5067696ef1786ee55f73e65e2b7f3e71b92c5f3cfc53950"},
		{"SED/extreme", "d68fb09537580bdc821ca66474546ff7459eea69d8d0cdaf6d6c0228e0b0fe6d"},
		{"SED/huge", "26ac10a680c47190a3cf7ef1caf235a6cd9ab3afca1853e317c6be49580180bd"},
		{"SED/near-dup-times", "8bbc328a06ed3a25d20f825e19f05fc38f6f943f3f5dfb10866c5c7d9f430624"},
		{"SED/overflow", "c3aee0c5e41bf9a19b24aaf3c173819414952abbfeade2502e8a15b0244ad8d3"},
		{"SED/random-walk", "6d9db6a37219c4503e0c9e7d9044cd5040e993bae7f3dbfab64cb1fec76dce13"},
		{"SED/stationary", "9c0d7dba8d2c0b1e5a5bf2122011211cada54f60ada43fddb02f336f681a9147"},
		{"SED/truck", "6eed71fe0028b370927d42e1fd1c452f4a2de6ee492f92b9732ae2b37ca2eb1d"},
		{"SED/zigzag", "bdf33a8e9298abb402d10e83fea20a4de41b990ff44e70c03d9f70e23f2dd5d9"},
	}
	got := measureBitsDigests()
	if len(got) != len(tests) {
		t.Errorf("%d digests computed, %d expected", len(got), len(tests))
	}
	for _, tc := range tests {
		t.Run(tc.Name, func(t *testing.T) {
			if d, ok := got[tc.Name]; !ok {
				t.Fatal("row not computed")
			} else if d != tc.Expect {
				t.Fatalf("digest %s, want %s", d, tc.Expect)
			}
		})
	}
}

func measureBitsDigests() map[string]string {
	type input struct {
		name string
		tr   traj.Trajectory
	}
	var ins []input
	for k, g := range generators {
		ins = append(ins, input{g.name, g.gen(rand.New(rand.NewSource(int64(13000+k))), 24)})
	}
	ins = append(ins, input{"truck", gen.New(gen.Truck(), 2026).Trajectory(120)})
	ins = append(ins, input{"overflow", genOverflow(rand.New(rand.NewSource(13100)), 24)})
	out := map[string]string{}
	for _, m := range errm.Measures {
		for _, in := range ins {
			h := sha256.New()
			hashMeasureBits(h, m, in.tr)
			out[m.String()+"/"+in.name] = hex.EncodeToString(h.Sum(nil))
		}
	}
	return out
}

func hashMeasureBits(h hash.Hash, m errm.Measure, tr traj.Trajectory) {
	var word [8]byte
	put := func(v float64) {
		if math.IsNaN(v) {
			v = math.NaN()
		}
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
	n := len(tr)
	for a := 0; a < n-1; a++ {
		for b := a + 1; b < n; b++ {
			put(errm.SegmentError(m, tr, a, b))
			for i := a + 1; i < b; i++ {
				put(errm.PointError(m, tr, a, i, b))
			}
			s := tr.Segment(a, b)
			for i, p := range tr {
				switch m {
				case errm.SED:
					put(geo.SynchronizedDistance(s, p))
					put(s.TimeParam(p.T))
				case errm.PED:
					put(geo.PerpendicularDistance(s, p))
					put(s.ClosestParam(p))
				case errm.DAD:
					if i+1 < n {
						put(geo.DirectionDistance(s, tr.Segment(i, i+1)))
					}
				case errm.SAD:
					if i+1 < n {
						put(geo.SpeedDistance(s, tr.Segment(i, i+1)))
					}
				}
			}
		}
	}
	for i := 1; i < n-1; i++ {
		put(errm.OnlineValue(m, tr[i-1], tr[i], tr[i+1]))
	}
}

// genOverflow draws coordinates from the edges of the float64 range
// (±MaxFloat64 and neighbours, signed zeros, the smallest subnormal,
// moderate values) and timestamps that climb from -0.9·MaxFloat64
// towards +0.9·MaxFloat64, repeating one now and then. Differences of its
// coordinates and spans of its timestamps overflow, so Lerp's convex
// form, TimeParam's halved path, ClosestParam's wide path and Speed's
// halved ratio all run; unlike the adversarial families it lets true
// values exceed the float64 range, so its measures may be +Inf.
func genOverflow(r *rand.Rand, n int) traj.Trajectory {
	coord := func() float64 {
		switch r.Intn(6) {
		case 0:
			return math.MaxFloat64
		case 1:
			return -math.MaxFloat64 * (0.5 + r.Float64()/2)
		case 2:
			return math.Copysign(0, float64(r.Intn(2))-0.5)
		case 3:
			return 5e-324
		default:
			return r.NormFloat64() * 100
		}
	}
	t := make(traj.Trajectory, 0, n)
	tm := -0.9 * math.MaxFloat64
	step := 3.2 * (math.MaxFloat64 / float64(n))
	for i := 0; i < n; i++ {
		t = append(t, geo.Pt(coord(), coord(), tm))
		if r.Intn(4) != 0 {
			tm = math.Min(tm+step*r.Float64(), 0.9*math.MaxFloat64)
		}
	}
	return t
}
