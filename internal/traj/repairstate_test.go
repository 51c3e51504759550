package traj

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"rlts/internal/geo"
)

func TestRepairStateCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	rp := NewRepairer(RepairConfig{Window: 12, MaxSpeed: 9, DupRadius: 4, AverageDups: true})
	for i := 0; i < 250; i++ {
		rp.Push(geo.Pt(r.NormFloat64()*4, r.NormFloat64()*4, float64(i/2)+r.NormFloat64()*4))
	}
	st := rp.ExportState()
	blob := st.AppendBinary(nil)
	back, err := DecodeRepairState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("round trip differs:\n%+v\n%+v", st, back)
	}
	// And the decoded state resumes.
	if _, err := ResumeRepairer(back); err != nil {
		t.Fatal(err)
	}
	// Empty-window state round-trips too.
	empty := NewRepairer(RepairConfig{}).ExportState()
	back, err = DecodeRepairState(empty.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(empty, back) {
		t.Fatal("empty state round trip differs")
	}
}

func TestDecodeRepairStateTotal(t *testing.T) {
	rp := NewRepairer(RepairConfig{Window: 6, MaxSpeed: 3})
	for i := 0; i < 40; i++ {
		rp.Push(geo.Pt(float64(i), 0, float64(i)))
	}
	blob := rp.ExportState().AppendBinary(nil)
	// Every truncation must error cleanly.
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeRepairState(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage must error.
	if _, err := DecodeRepairState(append(append([]byte{}, blob...), 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Wrong version must error.
	bad := append([]byte{}, blob...)
	bad[0] = 99
	if _, err := DecodeRepairState(bad); err == nil {
		t.Fatal("wrong version accepted")
	}
	// A hostile pending count must not drive allocation.
	big := append([]byte{}, blob...)
	// pending count sits after version(1) + window(8) + 2 floats(16) +
	// avg(1) + seq(8) + maxRelSeq(8) = offset 42.
	big[42], big[43], big[44], big[45] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := DecodeRepairState(big); err == nil {
		t.Fatal("hostile pending count accepted")
	}
}

// TestDecodeRepairStateChecksLengthBeforeAlloc: a 46-byte header that
// declares the maximum 1<<20 pending fixes must fail without allocating
// for them (32 MiB), because the fixes it promises are not there.
func TestDecodeRepairStateChecksLengthBeforeAlloc(t *testing.T) {
	blob := NewRepairer(RepairConfig{}).ExportState().AppendBinary(nil)[:42]
	blob = binary.LittleEndian.AppendUint32(blob, maxRepairPending)
	if len(blob) != 46 {
		t.Fatalf("header is %d bytes, want 46", len(blob))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeRepairState(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("pending count with no fixes behind it accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("decoding a 46-byte blob allocated %d bytes", d)
	}
}

// FuzzDecodeRepairState feeds arbitrary bytes to the repair-state
// decoder, which a mutated spill envelope never reaches (its CRC fails
// first): it must decode or error, never panic, and anything it accepts
// must re-encode to bytes that decode and re-encode to themselves.
func FuzzDecodeRepairState(f *testing.F) {
	rp := NewRepairer(RepairConfig{Window: 6, MaxSpeed: 3, AverageDups: true})
	for i := 0; i < 40; i++ {
		rp.Push(geo.Pt(float64(i%7), 0, float64(i/2)))
	}
	valid := rp.ExportState().AppendBinary(nil)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(NewRepairer(RepairConfig{}).ExportState().AppendBinary(nil))
	f.Add([]byte{})
	f.Add([]byte{RepairStateVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeRepairState(data)
		if err != nil {
			return
		}
		enc := st.AppendBinary(nil)
		again, err := DecodeRepairState(enc)
		if err != nil {
			t.Fatalf("re-encoded state rejected: %v", err)
		}
		if !bytes.Equal(again.AppendBinary(nil), enc) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
