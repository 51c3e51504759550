// Package buffer implements the bounded point buffer at the heart of both
// the RLTS algorithms and the online baselines (STTrace, SQUISH,
// SQUISH-E): a doubly-linked list of points in trajectory order, paired
// with an indexed min-heap over each droppable point's "value" (the error
// its removal would introduce).
//
// The buffer itself is policy-agnostic: callers decide which value
// function to use (Eq. 1 online, Eq. 12 batch, or a baseline heuristic)
// and which entry to drop; the buffer provides O(log W) maintenance of
// the value order, which is what gives every algorithm built on it the
// O((n-W) log W) complexity the paper reports.
//
// # Allocation and entry reuse
//
// Entries come from a slab sized by New's capacity hint, so a buffer that
// stays within its hint allocates no entry after New. An entry that Drop
// or RemoveTail removes goes to a free list, and the next Append may hand
// the same *Entry out again for a different point. Until that Append the
// removed entry keeps its Index, P and Value (not its links), so a caller
// may read them right after removing it; it must not keep the pointer
// across an Append, as a map key or otherwise.
//
// The heap keeps each slot's value in an array beside its entries, so
// ordering the heap compares those values and loads no entry.
package buffer

import "rlts/internal/geo"

// Entry is one buffered point. Its Value is meaningful only while the
// entry is droppable (has both neighbours); endpoints carry no value and
// live outside the heap.
type Entry struct {
	Index int // index of the point in the original trajectory
	P     geo.Point

	value      float64
	heapPos    int // position in the value heap, -1 if absent
	prev, next *Entry
}

// Value returns the entry's current value.
func (e *Entry) Value() float64 { return e.value }

// Prev returns the buffer predecessor, or nil at the head.
func (e *Entry) Prev() *Entry { return e.prev }

// Next returns the buffer successor, or nil at the tail.
func (e *Entry) Next() *Entry { return e.next }

// Buffer is the bounded point buffer. The zero value is not usable; use
// New.
type Buffer struct {
	head, tail *Entry
	heap       []*Entry
	vals       []float64 // vals[i] is heap[i]'s value
	size       int

	slab []Entry // entries not yet handed out by Append
	free *Entry  // removed entries, linked through next, reused first

	kout      []*Entry // KLowest result scratch, reused across calls
	kfrontier []int    // KLowest frontier scratch, reused across calls
}

// New creates an empty buffer with capacity hint cap (the storage budget
// W; the buffer does not enforce it — the simplification loop does).
// The hint sizes the entry slab: a buffer that never holds more entries
// allocates none after New.
func New(capHint int) *Buffer {
	return &Buffer{
		heap: make([]*Entry, 0, capHint),
		vals: make([]float64, 0, capHint),
		slab: make([]Entry, capHint),
	}
}

// Size returns the number of buffered points.
func (b *Buffer) Size() int { return b.size }

// Head and Tail return the first and last buffered entries (nil when
// empty).
func (b *Buffer) Head() *Entry { return b.head }

// Tail returns the last buffered entry, or nil when empty.
func (b *Buffer) Tail() *Entry { return b.tail }

// Append adds a point at the tail and returns its entry. The entry starts
// without a value (not droppable); once the caller can compute a value for
// the previous tail, it should call SetValue on it.
func (b *Buffer) Append(index int, p geo.Point) *Entry {
	e := b.newEntry()
	*e = Entry{Index: index, P: p, heapPos: -1}
	if b.tail == nil {
		b.head, b.tail = e, e
	} else {
		e.prev = b.tail
		b.tail.next = e
		b.tail = e
	}
	b.size++
	return e
}

// newEntry takes an entry from the free list, else from the slab, which
// grows by a new block, as large as the buffer, when it runs out.
func (b *Buffer) newEntry() *Entry {
	if e := b.free; e != nil {
		b.free = e.next
		return e
	}
	if len(b.slab) == 0 {
		b.slab = make([]Entry, max(b.size, 16))
	}
	e := &b.slab[0]
	b.slab = b.slab[1:]
	return e
}

// SetValue assigns (or updates) the value of an interior entry and
// repairs its heap position. It panics on endpoints: they are never
// droppable.
func (b *Buffer) SetValue(e *Entry, v float64) {
	if e.prev == nil || e.next == nil {
		panic("buffer: SetValue on an endpoint")
	}
	e.value = v
	if e.heapPos < 0 {
		e.heapPos = len(b.heap)
		b.heap = append(b.heap, e)
		b.vals = append(b.vals, v)
		b.siftUp(e.heapPos)
		return
	}
	old := b.vals[e.heapPos]
	b.vals[e.heapPos] = v
	if v < old {
		b.siftUp(e.heapPos)
	} else if v > old {
		b.siftDown(e.heapPos)
	}
}

// Drop removes entry e from the buffer and the heap and returns its
// former neighbours so the caller can repair their values. e keeps its
// fields until the next Append, which may reuse it. Dropping an endpoint
// is a bug and panics.
func (b *Buffer) Drop(e *Entry) (prev, next *Entry) {
	if e.prev == nil || e.next == nil {
		panic("buffer: Drop on an endpoint")
	}
	prev, next = e.prev, e.next
	if e.heapPos >= 0 {
		b.heapRemove(e.heapPos)
	}
	prev.next = next
	next.prev = prev
	e.prev, e.next = nil, b.free
	b.free = e
	b.size--
	return prev, next
}

// RemoveTail detaches and returns the tail entry, used by the skip actions
// of RLTS-Skip to un-append a point that was tentatively inserted for state
// construction. The former predecessor becomes the tail again; if it
// carries a (now possibly stale) value it stays in the heap — the
// simplification loop recomputes it on the next scan before any state is
// built. The removed entry keeps its fields until the next Append, which
// may reuse it. Removing the only entry is a bug and panics.
func (b *Buffer) RemoveTail() *Entry {
	e := b.tail
	if e == nil || e.prev == nil {
		panic("buffer: RemoveTail on empty or single-entry buffer")
	}
	if e.heapPos >= 0 {
		b.heapRemove(e.heapPos)
	}
	b.tail = e.prev
	b.tail.next = nil
	e.prev, e.next = nil, b.free
	b.free = e
	b.size--
	return e
}

// Min returns the droppable entry with the lowest value, or nil when no
// entry is droppable.
func (b *Buffer) Min() *Entry {
	if len(b.heap) == 0 {
		return nil
	}
	return b.heap[0]
}

// KLowest returns the k droppable entries with the lowest values in
// ascending order (fewer if the heap is smaller), leaving the heap
// untouched. Equal values come in the order of a frontier walk over the
// heap array that takes a later frontier slot only on a strictly smaller
// value: the root, then its lower child (the left one on a tie), then the
// lowest of the root's other child and the second's left and right
// children, compared in that order. For k <= 3 that is a closed form of
// at most three comparisons; a larger k walks the frontier, which costs
// O(k²) and does not depend on the heap's size.
//
// The returned slice is backed by a buffer-owned scratch array: it is only
// valid until the next KLowest call on this buffer. Every caller in this
// repository consumes it (builds a state vector or picks an entry) before
// calling again; copy it if you need to hold on to it.
func (b *Buffer) KLowest(k int) []*Entry {
	n := len(b.heap)
	if k > n {
		k = n
	}
	switch {
	case k == 0:
		return nil
	case k > 3:
		return b.walk(k)
	}
	out := append(b.kout[:0], b.heap[0])
	if k > 1 {
		second, other := 1, 2
		if n > 2 && b.vals[2] < b.vals[1] {
			second, other = 2, 1
		}
		out = append(out, b.heap[second])
		if k > 2 {
			third := other
			if l := 2*second + 1; l < n && b.vals[l] < b.vals[third] {
				third = l
			}
			if r := 2*second + 2; r < n && b.vals[r] < b.vals[third] {
				third = r
			}
			out = append(out, b.heap[third])
		}
	}
	b.kout = out
	return out
}

// walk is KLowest's frontier walk for 1 <= k <= len(b.heap): the heap
// positions whose parents have been taken, scanned for the lowest value
// with the earliest slot winning a tie. The heap property keeps the next
// lowest on the frontier.
func (b *Buffer) walk(k int) []*Entry {
	out := b.kout[:0]
	frontier := append(b.kfrontier[:0], 0)
	for len(out) < k {
		// Extract the frontier element with the smallest value.
		bi := 0
		for i := 1; i < len(frontier); i++ {
			if b.vals[frontier[i]] < b.vals[frontier[bi]] {
				bi = i
			}
		}
		pos := frontier[bi]
		frontier = append(frontier[:bi], frontier[bi+1:]...)
		out = append(out, b.heap[pos])
		if l := 2*pos + 1; l < len(b.heap) {
			frontier = append(frontier, l)
		}
		if r := 2*pos + 2; r < len(b.heap) {
			frontier = append(frontier, r)
		}
	}
	b.kout, b.kfrontier = out, frontier
	return out
}

// Points returns the buffered points in trajectory order.
func (b *Buffer) Points() []geo.Point {
	out := make([]geo.Point, 0, b.size)
	for e := b.head; e != nil; e = e.next {
		out = append(out, e.P)
	}
	return out
}

// Indices returns the original indices of the buffered points in order.
func (b *Buffer) Indices() []int {
	out := make([]int, 0, b.size)
	for e := b.head; e != nil; e = e.next {
		out = append(out, e.Index)
	}
	return out
}

// siftUp and siftDown move the entry at heap slot i to its place. They
// work on local copies of the slice headers: read through b, each store
// to an entry's heapPos would make the compiler load them again.
func (b *Buffer) siftUp(i int) {
	heap, vals := b.heap, b.vals
	e, v := heap[i], vals[i]
	for i > 0 {
		parent := (i - 1) / 2
		if vals[parent] <= v {
			break
		}
		heap[i], vals[i] = heap[parent], vals[parent]
		heap[i].heapPos = i
		i = parent
	}
	heap[i], vals[i] = e, v
	e.heapPos = i
}

func (b *Buffer) siftDown(i int) {
	heap, vals := b.heap, b.vals
	e, v := heap[i], vals[i]
	n := len(heap)
	for {
		small := i
		l, r := 2*i+1, 2*i+2
		sv := v
		if l < n && vals[l] < sv {
			small, sv = l, vals[l]
		}
		if r < n && vals[r] < sv {
			small = r
		}
		if small == i {
			break
		}
		heap[i], vals[i] = heap[small], vals[small]
		heap[i].heapPos = i
		i = small
	}
	heap[i], vals[i] = e, v
	e.heapPos = i
}

func (b *Buffer) heapRemove(pos int) {
	last := len(b.heap) - 1
	b.heap[pos].heapPos = -1
	if pos == last {
		b.heap, b.vals = b.heap[:last], b.vals[:last]
		return
	}
	moved := b.heap[last]
	b.heap[pos], b.vals[pos] = moved, b.vals[last]
	moved.heapPos = pos
	b.heap, b.vals = b.heap[:last], b.vals[:last]
	// The moved element may violate either direction. If siftDown moved
	// it, its new parent is a former child with a strictly smaller value,
	// so only an entry siftDown left in place can need siftUp.
	b.siftDown(pos)
	if moved.heapPos == pos {
		b.siftUp(pos)
	}
}
