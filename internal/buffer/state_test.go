package buffer

import (
	"math/rand"
	"testing"

	"rlts/internal/geo"
)

// scrambledBuffer builds a buffer with a history-dependent heap layout:
// appends, value updates and interior drops in a seeded random order.
func scrambledBuffer(t *testing.T, seed int64, n int) *Buffer {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := New(n)
	for i := 0; i < n; i++ {
		b.Append(i, geo.Pt(r.Float64()*100, r.Float64()*100, float64(i)))
	}
	for e := b.head.next; e != nil && e.next != nil; e = e.next {
		b.SetValue(e, r.Float64()*10)
	}
	for i := 0; i < n/3; i++ {
		// Drop a random interior entry, then churn a value.
		e := b.head.next
		for j := r.Intn(b.size - 2); j > 0 && e.next.next != nil; j-- {
			e = e.next
		}
		b.Drop(e)
		if in := b.head.next; in != nil && in.next != nil {
			b.SetValue(in, r.Float64()*10)
		}
	}
	if err := b.checkInvariants(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	return b
}

// TestExportRestoreRoundTrip: a restored buffer is layout-identical —
// same list order, same values, same heap slots — so KLowest and every
// subsequent mutation behave bit-identically.
func TestExportRestoreRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		b := scrambledBuffer(t, seed, 20)
		dump := b.Export()
		r, err := Restore(dump, 20)
		if err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		if err := r.checkInvariants(); err != nil {
			t.Fatalf("seed %d: restored invariants: %v", seed, err)
		}
		if r.Size() != b.Size() || r.Droppable() != b.Droppable() {
			t.Fatalf("seed %d: size/droppable %d/%d, want %d/%d",
				seed, r.Size(), r.Droppable(), b.Size(), b.Droppable())
		}
		// Heap layout must match slot for slot, not just value order.
		for i := range b.heap {
			if b.heap[i].Index != r.heap[i].Index || b.vals[i] != r.vals[i] {
				t.Fatalf("seed %d: heap slot %d differs", seed, i)
			}
		}
		// KLowest sequences coincide for every k.
		for k := 1; k <= b.Droppable(); k++ {
			bk, rk := b.KLowest(k), r.KLowest(k)
			for i := range bk {
				if bk[i].Index != rk[i].Index {
					t.Fatalf("seed %d: KLowest(%d)[%d]: %d vs %d", seed, k, i, bk[i].Index, rk[i].Index)
				}
			}
		}
		// Subsequent mutations agree: drop the min on both, re-check.
		for b.Droppable() > 0 {
			bm, rm := b.Min(), r.Min()
			if bm.Index != rm.Index {
				t.Fatalf("seed %d: min diverged: %d vs %d", seed, bm.Index, rm.Index)
			}
			b.Drop(bm)
			r.Drop(rm)
		}
	}
}

func TestRestoreRejectsCorruptDumps(t *testing.T) {
	base := scrambledBuffer(t, 42, 12).Export()
	cases := []struct {
		name    string
		corrupt func(d []EntryState) []EntryState
	}{
		{"head in heap", func(d []EntryState) []EntryState {
			d[0].HeapPos = 0
			d[1].HeapPos = -1
			return d
		}},
		{"heap slot out of range", func(d []EntryState) []EntryState {
			for i := range d {
				if d[i].HeapPos >= 0 {
					d[i].HeapPos = 1 << 20
					break
				}
			}
			return d
		}},
		{"duplicate heap slot", func(d []EntryState) []EntryState {
			first := -1
			for i := range d {
				if d[i].HeapPos >= 0 {
					if first < 0 {
						first = d[i].HeapPos
					} else {
						d[i].HeapPos = first
						return d
					}
				}
			}
			t.Fatal("dump has < 2 heap entries")
			return d
		}},
		{"negative junk slot", func(d []EntryState) []EntryState {
			d[0].HeapPos = -7
			return d
		}},
		{"heap property violated", func(d []EntryState) []EntryState {
			for i := range d {
				if d[i].HeapPos == 0 {
					d[i].Value = 1e18 // root larger than any child
				}
			}
			return d
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dump := append([]EntryState(nil), base...)
			if _, err := Restore(c.corrupt(dump), 0); err == nil {
				t.Fatal("corrupt dump restored without error")
			}
		})
	}
}

func TestRestoreEmptyAndSingle(t *testing.T) {
	b, err := Restore(nil, 4)
	if err != nil || b.Size() != 0 {
		t.Fatalf("empty restore: %v size %d", err, b.Size())
	}
	b, err = Restore([]EntryState{{Index: 0, P: geo.Pt(1, 2, 3), HeapPos: -1}}, 4)
	if err != nil || b.Size() != 1 || b.Head() != b.Tail() {
		t.Fatalf("single restore: %v", err)
	}
}
