// Package batch implements the batch-mode Min-Error algorithms the paper
// compares against:
//
//	Bellman     — the exact dynamic program (min-max formulation), cubic
//	              time; only feasible on short trajectories.
//	TopDown     — budgeted Douglas-Peucker: repeatedly split the segment
//	              with the largest error at its worst point until W points
//	              are kept.
//	BottomUp    — start from all points and repeatedly drop the point whose
//	              removal introduces the smallest error,
//	              O((n-W)(n' + log n)).
//	SpanSearch  — the DAD-specific binary search over error bounds with a
//	              greedy maximal-span cover.
package batch

import (
	"container/heap"
	"fmt"
	"sort"

	"rlts/internal/buffer"
	"rlts/internal/errm"
	"rlts/internal/traj"
)

func checkArgs(n, w int) error {
	if w < 2 {
		return fmt.Errorf("batch: budget W must be >= 2, got %d", w)
	}
	if n < 2 {
		return traj.ErrTooShort
	}
	return nil
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// BottomUp simplifies t to at most w points by repeatedly dropping the
// point with the smallest merge cost (the Eq. 12 value: the error of the
// segment its removal would create, over every original point in the
// span).
func BottomUp(t traj.Trajectory, w int, m errm.Measure) ([]int, error) {
	n := len(t)
	if err := checkArgs(n, w); err != nil {
		return nil, err
	}
	if !m.Valid() {
		return nil, fmt.Errorf("batch: invalid measure %d", int(m))
	}
	if n <= w {
		return allIndices(n), nil
	}
	buf := buffer.New(n)
	for i := 0; i < n; i++ {
		buf.Append(i, t[i])
	}
	for e := buf.Head().Next(); e != buf.Tail(); e = e.Next() {
		buf.SetValue(e, errm.SegmentError(m, t, e.Prev().Index, e.Next().Index))
	}
	for buf.Size() > w {
		d := buf.Min()
		prev, next := buf.Drop(d)
		if prev.Prev() != nil {
			buf.SetValue(prev, errm.SegmentError(m, t, prev.Prev().Index, next.Index))
		}
		if next.Next() != nil {
			buf.SetValue(next, errm.SegmentError(m, t, prev.Index, next.Next().Index))
		}
	}
	return buf.Indices(), nil
}

// TopDown simplifies t to at most w points Douglas-Peucker style: starting
// from the endpoints, repeatedly split the segment with the largest error
// at its maximum-error point.
func TopDown(t traj.Trajectory, w int, m errm.Measure) ([]int, error) {
	n := len(t)
	if err := checkArgs(n, w); err != nil {
		return nil, err
	}
	if !m.Valid() {
		return nil, fmt.Errorf("batch: invalid measure %d", int(m))
	}
	if n <= w {
		return allIndices(n), nil
	}
	h := &segHeap{}
	heap.Init(h)
	pushSeg(h, t, m, 0, n-1)
	kept := 2
	for kept < w && h.Len() > 0 {
		s := heap.Pop(h).(splitSeg)
		if s.err == 0 {
			// Every remaining segment is exact; no further split helps.
			heap.Push(h, s)
			break
		}
		pushSeg(h, t, m, s.a, s.split)
		pushSeg(h, t, m, s.split, s.b)
		kept++
	}
	// Collect kept indices: the segment endpoints remaining in the heap.
	marks := map[int]bool{0: true, n - 1: true}
	for _, s := range *h {
		marks[s.a] = true
		marks[s.b] = true
	}
	out := make([]int, 0, len(marks))
	for ix := range marks {
		out = append(out, ix)
	}
	sort.Ints(out)
	return out, nil
}

// splitSeg is a segment in the Top-Down heap with its worst interior point.
type splitSeg struct {
	a, b  int
	split int
	err   float64
}

type segHeap []splitSeg

func (h segHeap) Len() int            { return len(h) }
func (h segHeap) Less(i, j int) bool  { return h[i].err > h[j].err } // max-heap
func (h segHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *segHeap) Push(x interface{}) { *h = append(*h, x.(splitSeg)) }
func (h *segHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

func pushSeg(h *segHeap, t traj.Trajectory, m errm.Measure, a, b int) {
	if b <= a+1 {
		heap.Push(h, splitSeg{a: a, b: b, split: -1, err: 0})
		return
	}
	an := errm.Prepare(m, t, a, b)
	worst, at := -1.0, a+1
	for i := a + 1; i < b; i++ {
		if e := an.PointError(i); e > worst {
			worst, at = e, i
		}
	}
	heap.Push(h, splitSeg{a: a, b: b, split: at, err: worst})
}

// Bellman computes the exact Min-Error simplification (minimum over
// simplifications of the maximum segment error) with at most w kept
// points, via dynamic programming. It precomputes all pairwise segment
// errors, so it needs O(n^2) memory and O(n^3) time — use it only on
// short trajectories, as the paper does (~300 points).
func Bellman(t traj.Trajectory, w int, m errm.Measure) ([]int, error) {
	n := len(t)
	if err := checkArgs(n, w); err != nil {
		return nil, err
	}
	if !m.Valid() {
		return nil, fmt.Errorf("batch: invalid measure %d", int(m))
	}
	if n <= w {
		return allIndices(n), nil
	}
	// segErr[a][b] = error of anchor segment (a, b).
	segErr := make([][]float64, n)
	for a := 0; a < n; a++ {
		segErr[a] = make([]float64, n)
		for b := a + 1; b < n; b++ {
			segErr[a][b] = errm.SegmentError(m, t, a, b)
		}
	}
	const inf = 1e308
	// d[c][i]: minimal max-error over simplifications of T[0..i] keeping
	// exactly c+1 points and ending at i. parent[c][i] reconstructs.
	d := make([][]float64, w)
	parent := make([][]int, w)
	for c := 0; c < w; c++ {
		d[c] = make([]float64, n)
		parent[c] = make([]int, n)
		for i := range d[c] {
			d[c][i] = inf
			parent[c][i] = -1
		}
	}
	d[0][0] = 0
	for c := 1; c < w; c++ {
		for i := 1; i < n; i++ {
			for l := c - 1; l < i; l++ {
				if d[c-1][l] >= inf {
					continue
				}
				v := d[c-1][l]
				if e := segErr[l][i]; e > v {
					v = e
				}
				if v < d[c][i] {
					d[c][i] = v
					parent[c][i] = l
				}
			}
		}
	}
	// The best simplification may use fewer than w points.
	bestC, bestV := -1, inf
	for c := 1; c < w; c++ {
		if d[c][n-1] < bestV {
			bestC, bestV = c, d[c][n-1]
		}
	}
	if bestC < 0 {
		return nil, fmt.Errorf("batch: Bellman found no solution (w=%d, n=%d)", w, n)
	}
	kept := make([]int, 0, bestC+1)
	for c, i := bestC, n-1; i >= 0 && c >= 0; c-- {
		kept = append(kept, i)
		i = parent[c][i]
		if c == 0 {
			break
		}
	}
	// Reverse.
	for l, r := 0, len(kept)-1; l < r; l, r = l+1, r-1 {
		kept[l], kept[r] = kept[r], kept[l]
	}
	return kept, nil
}
