package buffer

import (
	"fmt"

	"rlts/internal/geo"
)

// EntryState is the serializable form of one buffered entry. Together
// with its position in the Export slice (which records list order) it
// captures everything about the entry: the original trajectory index,
// the point, the drop value and the exact slot in the value heap.
//
// HeapPos must be preserved verbatim, not recomputed: a heap's internal
// arrangement depends on its insertion/removal history, and KLowest
// breaks value ties by heap layout. Restoring values into a freshly
// built heap would be order-equivalent but not layout-identical, and a
// simplification policy consuming KLowest output could then diverge
// from the never-serialized run on tied values.
type EntryState struct {
	Index   int
	P       geo.Point
	Value   float64
	HeapPos int // slot in the value heap, -1 if not droppable
}

// Export captures the buffer's full internal state: entries in list
// order, each with its heap slot. The result round-trips through
// Restore to a buffer that behaves bit-identically to the original
// under every operation.
func (b *Buffer) Export() []EntryState {
	out := make([]EntryState, 0, b.size)
	for e := b.head; e != nil; e = e.next {
		out = append(out, EntryState{Index: e.Index, P: e.P, Value: e.value, HeapPos: e.heapPos})
	}
	return out
}

// Restore rebuilds a buffer from an Export dump. It validates the dump
// fully before committing — heap slots must form a permutation of
// 0..h-1, the head must not be droppable, and the min-heap property
// must hold — so a corrupted dump yields an error, never a buffer that
// panics or misbehaves later.
func Restore(entries []EntryState, capHint int) (*Buffer, error) {
	if capHint < len(entries) {
		capHint = len(entries)
	}
	// Count heap members and bounds-check slots first.
	heapLen := 0
	for i, es := range entries {
		if es.HeapPos >= 0 {
			heapLen++
			if i == 0 {
				return nil, fmt.Errorf("buffer: restore: head entry claims heap slot %d", es.HeapPos)
			}
		} else if es.HeapPos != -1 {
			return nil, fmt.Errorf("buffer: restore: entry %d has heap slot %d (want >= -1)", i, es.HeapPos)
		}
	}
	b := &Buffer{
		heap: make([]*Entry, heapLen, capHint),
		vals: make([]float64, heapLen, capHint),
		slab: make([]Entry, capHint),
	}
	for i, es := range entries {
		e := b.newEntry()
		*e = Entry{Index: es.Index, P: es.P, value: es.Value, heapPos: es.HeapPos}
		if b.tail == nil {
			b.head, b.tail = e, e
		} else {
			e.prev = b.tail
			b.tail.next = e
			b.tail = e
		}
		b.size++
		if es.HeapPos >= 0 {
			if es.HeapPos >= heapLen {
				return nil, fmt.Errorf("buffer: restore: entry %d heap slot %d out of range (heap size %d)", i, es.HeapPos, heapLen)
			}
			if b.heap[es.HeapPos] != nil {
				return nil, fmt.Errorf("buffer: restore: duplicate heap slot %d", es.HeapPos)
			}
			b.heap[es.HeapPos], b.vals[es.HeapPos] = e, es.Value
		}
	}
	// The per-slot occupancy check above plus matching counts make the
	// slots a permutation; verify the heap ordering invariant on values.
	for i, v := range b.vals {
		if l := 2*i + 1; l < heapLen && b.vals[l] < v {
			return nil, fmt.Errorf("buffer: restore: heap property violated at slot %d (left child)", i)
		}
		if r := 2*i + 2; r < heapLen && b.vals[r] < v {
			return nil, fmt.Errorf("buffer: restore: heap property violated at slot %d (right child)", i)
		}
	}
	return b, nil
}
