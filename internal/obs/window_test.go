package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// fakeClock pins a Window to a manually advanced clock so slot rollover
// is deterministic under test.
type fakeClock struct {
	mu  sync.Mutex
	now int64
}

func (c *fakeClock) fn() func() int64 {
	return func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.now
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now += int64(d)
	c.mu.Unlock()
}

func newTestWindow(bounds []float64, slot time.Duration, slots int) (*Window, *fakeClock) {
	w := NewWindow(bounds, slot, slots)
	clk := &fakeClock{now: int64(slot) * 1000} // away from zero so seq math is boring
	w.nowFn = clk.fn()
	return w, clk
}

func TestWindowDisabledIsNoOp(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	w, _ := newTestWindow(LatencyBuckets, time.Second, 4)
	w.Observe(1e-3)
	if n := w.Count(); n != 0 {
		t.Errorf("disabled window recorded %d observations", n)
	}
}

func TestWindowCountSumAndQuantiles(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	// Bounds 1..10: observations land one per bucket, quantiles are
	// predictable by linear interpolation.
	w, _ := newTestWindow(LinearBuckets(1, 1, 10), time.Second, 4)
	var sum float64
	for i := 1; i <= 100; i++ {
		v := float64(i%10) + 0.5 // 0.5..9.5, uniform
		w.Observe(v)
		sum += v
	}
	if n := w.Count(); n != 100 {
		t.Fatalf("Count = %d, want 100", n)
	}
	if got := w.Sum(); math.Abs(got-sum) > 1e-9 {
		t.Errorf("Sum = %v, want %v", got, sum)
	}
	qs := w.Quantiles(0.5, 0.95, 0.99)
	// Uniform over [0.5, 9.5]: p50 ≈ 5, p95 ≈ 9.5 — the estimator is
	// bucket-resolution coarse, so assert the right neighbourhood.
	if qs[0] < 4 || qs[0] > 6 {
		t.Errorf("p50 = %v, want ≈5", qs[0])
	}
	if qs[1] < 9 || qs[1] > 10 {
		t.Errorf("p95 = %v, want ≈9.5", qs[1])
	}
	if qs[2] < qs[1] {
		t.Errorf("p99 %v < p95 %v", qs[2], qs[1])
	}
}

func TestWindowExpiresOldSlots(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	w, clk := newTestWindow(LinearBuckets(1, 1, 4), time.Second, 3)
	w.Observe(1)
	w.Observe(2)
	if n := w.Count(); n != 2 {
		t.Fatalf("Count = %d, want 2", n)
	}
	// One slot forward: still inside the 3-slot window.
	clk.advance(time.Second)
	w.Observe(3)
	if n := w.Count(); n != 3 {
		t.Fatalf("after 1 slot Count = %d, want 3", n)
	}
	// Jump past the whole window: everything ages out.
	clk.advance(10 * time.Second)
	if n := w.Count(); n != 0 {
		t.Errorf("after expiry Count = %d, want 0", n)
	}
	if qs := w.Quantiles(0.5); qs[0] != 0 {
		t.Errorf("empty-window quantile = %v, want 0", qs[0])
	}
	// The ring recycles: new observations land cleanly in reused slots.
	w.Observe(4)
	if n := w.Count(); n != 1 {
		t.Errorf("after recycle Count = %d, want 1", n)
	}
}

func TestWindowOverflowBucketQuantile(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	w, _ := newTestWindow([]float64{1, 2}, time.Second, 2)
	for i := 0; i < 10; i++ {
		w.Observe(100) // all overflow
	}
	if q := w.Quantiles(0.99)[0]; q != 2 {
		t.Errorf("overflow quantile = %v, want clamped to last bound 2", q)
	}
}

func TestWindowConcurrentObserve(t *testing.T) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	w, _ := newTestWindow(LatencyBuckets, time.Second, 4)
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w.Observe(1e-4)
			}
		}()
	}
	wg.Wait()
	if n := w.Count(); n != goroutines*per {
		t.Errorf("Count = %d, want %d", n, goroutines*per)
	}
}

func TestWindowShapeAndSpan(t *testing.T) {
	w := NewWindow([]float64{1, 2, 3}, 2*time.Second, 5)
	if len(w.bounds) != 3 || w.slotNanos != 2e9 || len(w.slots) != 5 {
		t.Errorf("shape: %d bounds, %d ns slots, %d slots", len(w.bounds), w.slotNanos, len(w.slots))
	}
	if w.Span() != 10*time.Second {
		t.Errorf("Span = %v, want 10s", w.Span())
	}
	// Defensive floors.
	w2 := NewWindow(nil, 0, 0)
	if len(w2.slots) < 2 || w2.slotNanos <= 0 {
		t.Errorf("floored shape: %d ns slots, %d slots", w2.slotNanos, len(w2.slots))
	}
}

func TestLinearBuckets(t *testing.T) {
	got := LinearBuckets(0.5, 0.25, 3)
	want := []float64{0.5, 0.75, 1.0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LinearBuckets = %v, want %v", got, want)
		}
	}
}
