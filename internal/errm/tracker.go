package errm

import (
	"container/heap"
	"fmt"

	"rlts/internal/traj"
)

// Tracker maintains the error of an evolving simplified trajectory under
// drop and extend operations. It is the substrate for computing the MDP
// reward r = eps(T'_before) - eps(T'_after) (Eq. 8) incrementally during
// policy training: a naive recomputation would cost O(n) per transition on
// the whole prefix, while the tracker only rescans the span bridged by the
// dropped point.
//
// A Tracker views the simplification as a set of kept original indices
// forming a linked chain. Each chain link (a, b) carries the segment error
// SegmentError(m, t, a, b); the trajectory error is the maximum link error,
// maintained with a lazy-deletion max-heap since dropping a point removes
// two links and adds one, which can lower the maximum.
type Tracker struct {
	m    Measure
	t    traj.Trajectory
	prev []int // prev[i] = kept predecessor of kept index i, -1 at head
	next []int // next[i] = kept successor of kept index i, -1 at tail
	in   []bool
	tail int // last kept index, -1 before the first Extend
	kept int

	segErr map[int]float64 // link start index -> link error
	maxima lazyMax
}

// NewTracker returns a tracker over t containing only the first point.
// Use ExtendTo to append further kept points (online processing) or
// NewFullTracker to start from the complete trajectory (batch processing).
func NewTracker(m Measure, t traj.Trajectory) *Tracker {
	if len(t) < 1 {
		panic("errm: NewTracker on empty trajectory")
	}
	tr := &Tracker{
		m:      m,
		t:      t,
		prev:   make([]int, len(t)),
		next:   make([]int, len(t)),
		in:     make([]bool, len(t)),
		tail:   0,
		kept:   1,
		segErr: make(map[int]float64),
	}
	for i := range tr.prev {
		tr.prev[i], tr.next[i] = -1, -1
	}
	tr.in[0] = true
	return tr
}

// NewFullTracker returns a tracker with every point of t kept, as the
// variable-size-buffer algorithms (RLTS++) start from.
func NewFullTracker(m Measure, t traj.Trajectory) *Tracker {
	tr := NewTracker(m, t)
	for i := 1; i < len(t); i++ {
		tr.ExtendTo(i)
	}
	return tr
}

// ExtendTo appends original index i as the new tail of the kept chain.
// The new link (old tail, i) covers any original points in between (which
// happens when points were skipped).
func (tr *Tracker) ExtendTo(i int) {
	if i <= tr.tail || i >= len(tr.t) {
		panic(fmt.Sprintf("errm: ExtendTo(%d) invalid with tail %d, len %d", i, tr.tail, len(tr.t)))
	}
	a := tr.tail
	tr.next[a] = i
	tr.prev[i] = a
	tr.in[i] = true
	tr.tail = i
	tr.kept++
	tr.addLink(a, i)
}

// Drop removes kept interior index i from the chain, bridging its
// neighbours, and returns the new trajectory error.
func (tr *Tracker) Drop(i int) float64 {
	if i < 0 || i >= len(tr.t) || !tr.in[i] {
		panic(fmt.Sprintf("errm: Drop(%d) not kept", i))
	}
	a, b := tr.prev[i], tr.next[i]
	if a < 0 || b < 0 {
		panic(fmt.Sprintf("errm: Drop(%d) is an endpoint of the chain", i))
	}
	tr.removeLink(a)
	tr.removeLink(i)
	tr.in[i] = false
	tr.prev[i], tr.next[i] = -1, -1
	tr.next[a] = b
	tr.prev[b] = a
	tr.kept--
	tr.addLink(a, b)
	return tr.Err()
}

// Err returns the current trajectory error: the maximum link error.
func (tr *Tracker) Err() float64 { return tr.maxima.Max() }

// Kept returns the kept original indices in increasing order.
func (tr *Tracker) Kept() []int {
	out := make([]int, 0, tr.kept)
	for i := 0; i != -1; i = tr.next[i] {
		out = append(out, i)
		if tr.next[i] == -1 {
			break
		}
	}
	return out
}

// Tail returns the last kept original index.
func (tr *Tracker) Tail() int { return tr.tail }

func (tr *Tracker) addLink(a, b int) {
	e := SegmentError(tr.m, tr.t, a, b)
	tr.segErr[a] = e
	tr.maxima.Push(e)
}

func (tr *Tracker) removeLink(a int) {
	e, ok := tr.segErr[a]
	if !ok {
		panic(fmt.Sprintf("errm: removing unknown link at %d", a))
	}
	delete(tr.segErr, a)
	tr.maxima.Remove(e)
}

// lazyMax is a multiset of float64 supporting Push, Remove and Max in
// O(log n) amortized, implemented as a max-heap with a deferred-deletion
// count map.
type lazyMax struct {
	h     maxHeap
	dead  map[float64]int
	alive int
}

// Push adds v to the multiset.
func (l *lazyMax) Push(v float64) {
	heap.Push(&l.h, v)
	l.alive++
}

// Remove deletes one occurrence of v, which must have been pushed before.
func (l *lazyMax) Remove(v float64) {
	if l.dead == nil {
		l.dead = make(map[float64]int)
	}
	l.dead[v]++
	l.alive--
}

// Max returns the largest live value, or 0 if the multiset is empty.
func (l *lazyMax) Max() float64 {
	for l.h.Len() > 0 {
		top := l.h[0]
		if n := l.dead[top]; n > 0 {
			if n == 1 {
				delete(l.dead, top)
			} else {
				l.dead[top] = n - 1
			}
			heap.Pop(&l.h)
			continue
		}
		return top
	}
	return 0
}

// Len returns the number of live values.
func (l *lazyMax) Len() int { return l.alive }

type maxHeap []float64

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return h[i] > h[j] }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
