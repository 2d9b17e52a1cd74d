package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use, but almost every caller wants a registered instance from
// C/Registry.Counter so the value reaches snapshots.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1 when collection is enabled.
func (c *Counter) Inc() {
	if enabled.Load() {
		c.v.Add(1)
	}
}

// Add adds n when collection is enabled.
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.Add(n)
	}
}

// Value returns the accumulated count.
func (c *Counter) Value() int64 { return c.v.Load() }

// reset zeroes the counter (registry use).
func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an instantaneous level (active workers, pool size) that also
// tracks its high-water mark, so a snapshot answers both "how busy now"
// and "how busy at peak" — the occupancy question a worker pool gets asked.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Add moves the gauge by d (d may be negative) when collection is enabled,
// updating the high-water mark.
func (g *Gauge) Add(d int64) {
	if !enabled.Load() {
		return
	}
	v := g.v.Add(d)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Set stores an absolute level when collection is enabled, updating the
// high-water mark.
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark since the last reset.
func (g *Gauge) Max() int64 { return g.max.Load() }

func (g *Gauge) reset() {
	g.v.Store(0)
	g.max.Store(0)
}

// Histogram is a fixed-bucket distribution: bounds[i] is the inclusive
// upper edge of bucket i, and one overflow bucket catches everything
// above bounds[len-1]. Bounds are fixed at construction, so Observe is a
// branchy binary search plus two atomic adds — no allocation, no lock.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	n      atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value when collection is enabled.
func (h *Histogram) Observe(v float64) {
	if enabled.Load() {
		h.add(v)
	}
}

// add records one value unconditionally: the bucket search, the count and
// the CAS-accumulated sum that Histogram.Observe and each Window slot share.
func (h *Histogram) add(v float64) {
	// Binary search for the first bound >= v (hand-rolled: the sort.Search
	// closure would cost an allocation on a hot path).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the total of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Start opens a latency span feeding this histogram in seconds. The
// returned Span is a value (no allocation); call End to record. When
// collection is disabled the span is inert and End is free.
func (h *Histogram) Start() Span {
	if !enabled.Load() {
		return Span{}
	}
	return Span{h: h, t0: time.Now()}
}

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.n.Store(0)
	h.sum.Store(0)
}

// Span is one in-flight latency measurement. The zero Span (from a
// disabled Start) records nothing.
type Span struct {
	h  *Histogram
	t0 time.Time
}

// End records the elapsed time since Start into the histogram, in seconds.
// End on a zero Span is a no-op, so callers never need to re-check the
// enabled flag.
func (s Span) End() {
	if s.h != nil {
		s.h.Observe(time.Since(s.t0).Seconds())
	}
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and growing by factor: start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets spans 1 µs to ~4 s in factor-4 steps — wide enough for
// everything from one plan execution to a full paper-scale BIST run.
var LatencyBuckets = ExpBuckets(1e-6, 4, 12)
