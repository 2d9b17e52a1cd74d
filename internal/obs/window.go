package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Window is a rolling-window histogram: a fixed ring of time-bucketed
// histogram slots, each covering one slot duration, so quantile and rate
// questions ("p95 cell latency over the last minute", "units/sec right
// now") are answered over recent history instead of process lifetime.
// Observations land in the slot the wall clock selects; slots older than
// the ring are recycled in place, so memory is fixed at construction and
// Observe never allocates.
//
// The disabled-path contract matches Counter: when collection is off,
// Observe is one atomic load and returns — 0 allocs, ~1 ns, held by
// BenchmarkWindowDisabled. Enabled, an observation is the slot
// Histogram's add; slot recycling takes a mutex only on the first
// observation after a slot boundary.
//
// Windows are telemetry, not goldens: which slot an observation lands in
// depends on the wall clock, so live counts, sums and quantiles are
// explicitly excluded from the byte-pinned normalized snapshot — only the
// window's shape (bounds, slot duration, slot count) is deterministic.
type Window struct {
	bounds    []float64
	slotNanos int64
	slots     []windowSlot

	// rollMu serializes slot recycling. Observations racing a roll may
	// smear into the old or new slot; acceptable for telemetry, and the
	// alternative (per-observation locking) would break the hot-path
	// contract.
	rollMu sync.Mutex

	// nowFn is the clock, swappable in tests. Defaults to time.Now-based
	// nanoseconds.
	nowFn func() int64
}

// windowSlot is one time bucket of the ring: a histogram over the
// window's bounds plus the slot sequence number it currently holds.
type windowSlot struct {
	epoch atomic.Int64 // slot sequence number (now / slotNanos); -1 = never used
	h     Histogram
}

// NewWindow builds a rolling window with the given histogram bucket
// bounds, slot duration and slot count. The covered span is slot × slots;
// slots < 2 is raised to 2 (one live, one filling) and slot < 1ms to 1ms.
func NewWindow(bounds []float64, slot time.Duration, slots int) *Window {
	if slots < 2 {
		slots = 2
	}
	if slot < time.Millisecond {
		slot = time.Millisecond
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	w := &Window{
		bounds:    b,
		slotNanos: int64(slot),
		slots:     make([]windowSlot, slots),
		nowFn:     func() int64 { return time.Now().UnixNano() },
	}
	for i := range w.slots {
		w.slots[i].epoch.Store(-1)
		w.slots[i].h = Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	}
	return w
}

// Observe records one value into the current time slot when collection is
// enabled.
func (w *Window) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	seq := w.nowFn() / w.slotNanos
	s := &w.slots[int(seq%int64(len(w.slots)))]
	if s.epoch.Load() != seq {
		w.roll(s, seq)
	}
	s.h.add(v)
}

// roll recycles a slot for a new sequence number: zero its histogram and
// publish the new epoch. Double-checked under the mutex so concurrent
// observers reset at most once.
func (w *Window) roll(s *windowSlot, seq int64) {
	w.rollMu.Lock()
	defer w.rollMu.Unlock()
	if s.epoch.Load() == seq {
		return
	}
	s.h.reset()
	s.epoch.Store(seq)
}

// merged folds every slot still inside the window (epoch within the last
// len(slots) sequence numbers, including the partially filled current one)
// into one cumulative view.
func (w *Window) merged() (counts []int64, n int64, sum float64) {
	counts = make([]int64, len(w.bounds)+1)
	seq := w.nowFn() / w.slotNanos
	min := seq - int64(len(w.slots)) + 1
	for i := range w.slots {
		s := &w.slots[i]
		e := s.epoch.Load()
		if e < min || e > seq {
			continue
		}
		for j := range s.h.counts {
			counts[j] += s.h.counts[j].Load()
		}
		n += s.h.Count()
		sum += s.h.Sum()
	}
	return counts, n, sum
}

// Count returns the number of observations inside the rolling window.
func (w *Window) Count() int64 {
	_, n, _ := w.merged()
	return n
}

// Sum returns the total of the observations inside the rolling window.
func (w *Window) Sum() float64 {
	_, _, sum := w.merged()
	return sum
}

// Quantiles estimates the given quantiles (each in [0, 1]) over the
// rolling window in one merge pass. The estimate interpolates linearly
// inside the owning bucket (lower edge 0 for the first, the last finite
// bound for the overflow bucket — the estimator cannot see beyond its
// bounds). An empty window yields zeros.
func (w *Window) Quantiles(qs ...float64) []float64 {
	counts, n, _ := w.merged()
	out := make([]float64, len(qs))
	if n == 0 {
		return out
	}
	for qi, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		target := q * float64(n)
		var cum int64
		for i, c := range counts {
			prev := cum
			cum += c
			if float64(cum) < target || c == 0 {
				continue
			}
			lo := 0.0
			if i > 0 {
				lo = w.bounds[i-1]
			}
			hi := lo
			if i < len(w.bounds) {
				hi = w.bounds[i]
			}
			frac := (target - float64(prev)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			out[qi] = lo + (hi-lo)*frac
			break
		}
	}
	return out
}

// Span returns the total duration the window covers (slot × slots).
func (w *Window) Span() time.Duration {
	return time.Duration(w.slotNanos * int64(len(w.slots)))
}

// LinearBuckets returns n evenly spaced bucket bounds: start, start+width,
// ... Complements ExpBuckets for naturally bounded quantities (yield in
// [0, 1], margins in dB).
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}
