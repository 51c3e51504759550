// Package obs is the repo's dependency-free observability kit: counters,
// gauges and fixed-bucket histograms with atomic hot-path updates, a
// registry that renders the Prometheus text exposition format, and a thin
// log/slog setup shared by every command.
//
// The design goals, in order:
//
//  1. Hot-path updates must be cheap enough to leave the simplify/rollout
//     benchmarks within noise (one uncontended atomic op per event, no
//     allocation, no locks). Callers obtain a metric pointer once at setup
//     and hold it; the registry lookup never sits on a hot path.
//  2. No third-party dependencies: the exposition format is a small,
//     stable text protocol and the stdlib provides atomics and slog.
//  3. Deterministic output: families and series render in sorted order so
//     scrapes diff cleanly and tests can compare snapshots.
//
// Concurrency model: all metric updates are lock-free atomics. A scrape
// that races with updates may observe a histogram whose sum is a few
// observations ahead of its buckets (and vice versa); each individual
// value is still a consistent monotone reading, which is the usual
// Prometheus client guarantee.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (in-flight requests, buffer
// occupancy, active sessions). Stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Bounds are the inclusive
// upper edges of each bucket, strictly increasing; one implicit +Inf
// bucket catches the rest. Buckets are chosen at registration and never
// change, so Observe is a bounds scan plus two atomic adds.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// cumulative fills dst with the Prometheus-style cumulative bucket counts
// (one per bound, plus the +Inf total at the end).
func (h *Histogram) cumulative(dst []uint64) []uint64 {
	dst = dst[:0]
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		dst = append(dst, acc)
	}
	return dst
}

// ExpBuckets returns n strictly increasing bucket bounds starting at
// start and growing by factor: the standard shape for latency histograms.
// It panics on a non-positive start, a factor <= 1, or n < 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LinearBuckets returns n bounds start, start+width, ... — the shape for
// bounded integer-ish distributions (buffer occupancy, batch sizes).
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("obs: LinearBuckets needs width > 0, n >= 1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// DefLatencyBuckets spans 100µs to ~13s exponentially: wide enough for
// both the sub-millisecond simplify path and multi-second batch requests.
var DefLatencyBuckets = ExpBuckets(0.0001, 2.4, 14)
