package buffer

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"rlts/internal/geo"
)

func fill(b *Buffer, n int) []*Entry {
	es := make([]*Entry, n)
	for i := 0; i < n; i++ {
		es[i] = b.Append(i, geo.Pt(float64(i), 0, float64(i)))
	}
	return es
}

func TestAppendOrder(t *testing.T) {
	b := New(8)
	fill(b, 5)
	if b.Size() != 5 {
		t.Fatalf("Size = %d, want 5", b.Size())
	}
	idx := b.Indices()
	for i, ix := range idx {
		if ix != i {
			t.Fatalf("Indices = %v", idx)
		}
	}
	if b.Head().Index != 0 || b.Tail().Index != 4 {
		t.Error("head/tail wrong")
	}
	if err := b.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSetValueAndMin(t *testing.T) {
	b := New(8)
	es := fill(b, 6)
	vals := []float64{0, 5, 3, 8, 1, 0} // endpoints unused
	for i := 1; i <= 4; i++ {
		b.SetValue(es[i], vals[i])
	}
	if b.Droppable() != 4 {
		t.Fatalf("Droppable = %d, want 4", b.Droppable())
	}
	if m := b.Min(); m != es[4] {
		t.Errorf("Min = index %d, want 4", m.Index)
	}
	// Lowering a value must float it to the top.
	b.SetValue(es[3], 0.5)
	if m := b.Min(); m != es[3] {
		t.Errorf("Min after update = index %d, want 3", m.Index)
	}
	// Raising it must sink it again.
	b.SetValue(es[3], 99)
	if m := b.Min(); m != es[4] {
		t.Errorf("Min after raise = index %d, want 4", m.Index)
	}
	if err := b.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSetValueEndpointPanics(t *testing.T) {
	b := New(4)
	es := fill(b, 3)
	for _, e := range []*Entry{es[0], es[2]} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetValue on endpoint %d did not panic", e.Index)
				}
			}()
			b.SetValue(e, 1)
		}()
	}
}

func TestDrop(t *testing.T) {
	b := New(8)
	es := fill(b, 5)
	for i := 1; i <= 3; i++ {
		b.SetValue(es[i], float64(i))
	}
	prev, next := b.Drop(es[2])
	if prev != es[1] || next != es[3] {
		t.Error("Drop neighbours wrong")
	}
	if b.Size() != 4 || b.Droppable() != 2 {
		t.Errorf("Size=%d Droppable=%d", b.Size(), b.Droppable())
	}
	if es[2].InHeap() {
		t.Error("dropped entry still in heap")
	}
	want := []int{0, 1, 3, 4}
	for i, ix := range b.Indices() {
		if ix != want[i] {
			t.Fatalf("Indices = %v, want %v", b.Indices(), want)
		}
	}
	if err := b.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDropEndpointPanics(t *testing.T) {
	b := New(4)
	es := fill(b, 3)
	for _, e := range []*Entry{es[0], es[2]} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Drop endpoint did not panic")
				}
			}()
			b.Drop(e)
		}()
	}
}

func TestKLowest(t *testing.T) {
	b := New(16)
	es := fill(b, 10)
	vals := []float64{0, 7, 2, 9, 4, 1, 8, 3, 5, 0}
	for i := 1; i <= 8; i++ {
		b.SetValue(es[i], vals[i])
	}
	got := b.KLowest(3)
	if len(got) != 3 {
		t.Fatalf("KLowest len = %d", len(got))
	}
	wantVals := []float64{1, 2, 3}
	for i, e := range got {
		if e.Value() != wantVals[i] {
			t.Fatalf("KLowest vals = [%v %v %v], want %v",
				got[0].Value(), got[1].Value(), got[2].Value(), wantVals)
		}
	}
	// Requesting more than droppable truncates.
	if len(b.KLowest(99)) != 8 {
		t.Errorf("KLowest(99) len = %d, want 8", len(b.KLowest(99)))
	}
	if b.KLowest(0) != nil {
		t.Error("KLowest(0) should be nil")
	}
	// KLowest must not disturb the heap.
	if err := b.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRemoveTail(t *testing.T) {
	b := New(8)
	es := fill(b, 5)
	for i := 1; i <= 3; i++ {
		b.SetValue(es[i], float64(i))
	}
	got := b.RemoveTail()
	if got != es[4] || b.Size() != 4 || b.Tail() != es[3] {
		t.Errorf("RemoveTail: got index %d, size %d, tail %d", got.Index, b.Size(), b.Tail().Index)
	}
	// es[3] had a value; it must remain in the heap even though it is now
	// the tail (recomputed by the caller before the next state build).
	if !es[3].InHeap() {
		t.Error("new tail lost its heap slot")
	}
	// Removing a valued tail must also clear it from the heap.
	got = b.RemoveTail()
	if got != es[3] || es[3].InHeap() {
		t.Error("valued tail not removed from heap")
	}
	if err := b.checkInvariants(); err != nil {
		t.Error(err)
	}
	b.RemoveTail()
	b.RemoveTail()
	defer func() {
		if recover() == nil {
			t.Error("RemoveTail on single entry did not panic")
		}
	}()
	b.RemoveTail()
}

func TestPoints(t *testing.T) {
	b := New(4)
	fill(b, 3)
	ps := b.Points()
	if len(ps) != 3 || ps[1].X != 1 {
		t.Errorf("Points = %v", ps)
	}
}

// TestKLowestMatchesWalk holds KLowest's closed form for k <= 3 to the
// frontier walk on every heap of 1 to 7 slots over the values {0, 0.5,
// 1}, so that children are missing and ties fall in every position:
// all-equal heaps, runs of zeros, and ties between the root's children
// and the second lowest's children. Both must return the same entries in
// the same order, for k = 1 to 4.
func TestKLowestMatchesWalk(t *testing.T) {
	levels := []float64{0, 0.5, 1}
	for n := 1; n <= 7; n++ {
		b := New(n + 2)
		es := fill(b, n+2)
		vals := make([]float64, n)
		for code := 0; code < int(math.Pow(3, float64(n))); code++ {
			c := code
			heap := true
			for i := range vals {
				vals[i] = levels[c%3]
				c /= 3
				heap = heap && (i == 0 || vals[(i-1)/2] <= vals[i])
			}
			if !heap {
				continue
			}
			// Lay the values out in heap order directly, so every heap
			// shape is reached, not only those some insertion order builds.
			b.heap, b.vals = b.heap[:0], b.vals[:0]
			for i, v := range vals {
				e := es[i+1]
				e.value, e.heapPos = v, i
				b.heap, b.vals = append(b.heap, e), append(b.vals, v)
			}
			for k := 1; k <= 4; k++ {
				got := append([]*Entry(nil), b.KLowest(k)...)
				want := b.walk(min(k, n))
				if !slices.Equal(got, want) {
					t.Fatalf("heap %v: KLowest(%d) = %v, walk %v", vals, k, indices(got), indices(want))
				}
			}
		}
	}
}

func indices(es []*Entry) []int {
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.Index
	}
	return out
}

// TestRandomOpsProperty runs seeded random Append, Drop, RemoveTail and
// SetValue steps on a buffer whose slab is smaller than the entries it
// hands out, so removed entries are recycled and the slab grows. Half the
// values are drawn from {0, 0.5, 1}, so ties are common. After every step
// the list and heap invariants hold (every inline heap value equal to its
// entry's value), no two live entries share an address, a removed entry
// still reads as it did until the next Append, KLowest agrees with a
// sort and returns the frontier walk's entries in the walk's order for
// k = 1 to 4, and Export followed by Restore round-trips exactly.
func TestRandomOpsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		value := func() float64 {
			if r.Intn(2) == 0 {
				return float64(r.Intn(3)) / 2
			}
			return r.Float64() * 100
		}
		b := New(8)
		var live []*Entry
		next := 0
		// interior returns a random entry of live that has both neighbours.
		interior := func() int { return 1 + r.Intn(len(live)-2) }
		for op := 0; op < 300; op++ {
			var removed *Entry
			var was Entry
			switch c := r.Intn(8); {
			case len(live) < 3 || c < 4:
				e := b.Append(next, geo.Pt(r.Float64(), r.Float64(), float64(next)))
				next++
				live = append(live, e)
				// The previous tail just became interior: give it a value.
				if len(live) >= 2 {
					in := live[len(live)-2]
					if in.Prev() != nil && in.Next() != nil {
						b.SetValue(in, value())
					}
				}
			case c < 6:
				// Drop a random interior entry.
				i := interior()
				removed, was = live[i], *live[i]
				b.Drop(live[i])
				live = append(live[:i], live[i+1:]...)
				// Repair neighbour values as an algorithm would.
				for _, nb := range []*Entry{live[i-1], live[i]} {
					if nb.Prev() != nil && nb.Next() != nil {
						b.SetValue(nb, value())
					}
				}
			case c < 7:
				// Un-append the tail, as a skip action does.
				removed, was = live[len(live)-1], *live[len(live)-1]
				if b.RemoveTail() != removed {
					return false
				}
				live = live[:len(live)-1]
			default:
				// Move a random interior value, up or down the heap.
				b.SetValue(live[interior()], value())
			}
			if removed != nil && (removed.Index != was.Index || removed.P != was.P || removed.Value() != was.Value()) {
				return false // a removed entry changed before the next Append
			}
			if err := b.checkInvariants(); err != nil {
				t.Log(err)
				return false
			}
			seen := make(map[*Entry]bool, len(live))
			i := 0
			for e := b.Head(); e != nil; e = e.Next() {
				if seen[e] || i >= len(live) || live[i] != e {
					return false
				}
				seen[e] = true
				i++
			}
			// KLowest(4) must agree with a sort of all droppable values.
			k := b.KLowest(4)
			all := append([]float64(nil), b.vals...)
			sort.Float64s(all)
			for i, e := range k {
				if e.Value() != all[i] {
					return false
				}
			}
			// KLowest(1) is the heap root, the entry Min returns.
			if one := b.KLowest(1); len(b.heap) > 0 && (len(one) != 1 || one[0] != b.Min()) {
				return false
			}
			for k := 1; k <= 4 && k <= len(b.heap); k++ {
				got := append([]*Entry(nil), b.KLowest(k)...)
				if !slices.Equal(got, b.walk(k)) {
					return false
				}
			}
			dump := b.Export()
			rb, err := Restore(dump, 8)
			if err != nil || !reflect.DeepEqual(rb.Export(), dump) || len(rb.heap) != len(b.heap) {
				return false
			}
			for i := range b.heap {
				if rb.vals[i] != b.vals[i] || rb.heap[i].Index != b.heap[i].Index {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// InHeap reports whether the entry currently participates in the value
// order (i.e. is droppable).
func (e *Entry) InHeap() bool { return e.heapPos >= 0 }

// Droppable returns the number of entries in the value heap.
func (b *Buffer) Droppable() int { return len(b.heap) }

// checkInvariants verifies list and heap consistency.
func (b *Buffer) checkInvariants() error {
	n := 0
	for e := b.head; e != nil; e = e.next {
		if e.next != nil && e.next.prev != e {
			return fmt.Errorf("buffer: broken links at index %d", e.Index)
		}
		n++
	}
	if n != b.size {
		return fmt.Errorf("buffer: size %d, list length %d", b.size, n)
	}
	if len(b.vals) != len(b.heap) {
		return fmt.Errorf("buffer: %d heap values for %d heap entries", len(b.vals), len(b.heap))
	}
	for i, e := range b.heap {
		if e.heapPos != i {
			return fmt.Errorf("buffer: heapPos mismatch at %d", i)
		}
		if math.Float64bits(b.vals[i]) != math.Float64bits(e.value) {
			return fmt.Errorf("buffer: heap slot %d holds %v, its entry %v", i, b.vals[i], e.value)
		}
		if l := 2*i + 1; l < len(b.heap) && b.vals[l] < b.vals[i] {
			return fmt.Errorf("buffer: heap violated at %d (left)", i)
		}
		if r := 2*i + 2; r < len(b.heap) && b.vals[r] < b.vals[i] {
			return fmt.Errorf("buffer: heap violated at %d (right)", i)
		}
	}
	return nil
}
