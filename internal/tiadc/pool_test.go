package tiadc

import (
	"math"
	"testing"

	"repro/internal/adc"
	"repro/internal/sig"
)

// poolConfig exercises both buffer kinds: 10-bit converters take the int16
// capture-memory path (Raw0/Raw1 populated), so a capture draws from the
// float and the code pool.
func poolConfig() Config {
	ch := adc.Config{Bits: 10, FullScale: 1.5, NoiseRMS: 1e-4, Seed: 3}
	return Config{Ch0: ch, Ch1: ch, DCDE: DCDE{Min: 0, Max: 1e-9},
		ClockJitterRMS: 1e-12, Seed: 7}
}

// TestCapturePoolPoisonedBufferNoLeak pins the value-neutrality of buffer
// recycling: a released buffer is poisoned with NaN before it reenters the
// pool, and a fresh sampler's first capture — which will pick the poisoned
// buffers up — must still be bit-identical to a capture that never touched
// the pool. The capture writes every element it hands out, so no
// poison (i.e. no stale sample of a previous unit) can leak through.
func TestCapturePoolPoisonedBufferNoLeak(t *testing.T) {
	tone := &sig.Tone{Amp: 0.7, Freq: 13e6}
	run := func() *Capture {
		ti, err := New(poolConfig())
		if err != nil {
			t.Fatal(err)
		}
		c, err := ti.Capture(tone, 1e-8, 180e-12, 0, 257)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ref := run()
	want0 := append([]float64(nil), ref.Ch0...)
	want1 := append([]float64(nil), ref.Ch1...)
	wantR0 := append([]int16(nil), ref.Raw0...)
	if ref.Raw0 == nil || ref.Raw1 == nil {
		t.Fatal("test config must exercise the int16 capture path")
	}
	// Poison and release: the NaNs and sentinel codes are now in the pool.
	for i := range ref.Ch0 {
		ref.Ch0[i] = math.NaN()
		ref.Ch1[i] = math.NaN()
		ref.Raw0[i] = -32768
		ref.Raw1[i] = -32768
	}
	ref.Release()
	if ref.Ch0 != nil || ref.Raw0 != nil {
		t.Fatal("Release must clear the capture's fields")
	}
	got := run()
	for i := range want0 {
		if got.Ch0[i] != want0[i] || got.Ch1[i] != want1[i] {
			t.Fatalf("sample %d differs after pooled reuse: ch0 %g vs %g",
				i, got.Ch0[i], want0[i])
		}
		if got.Raw0[i] != wantR0[i] {
			t.Fatalf("raw code %d differs after pooled reuse", i)
		}
	}
	got.Release()
	// Release of an already-released (or nil) capture is a no-op.
	got.Release()
	var nilCap *Capture
	nilCap.Release()
}

// TestCaptureReleaseSteadyStateAllocs: once the pool is warm, a
// capture/release cycle must not allocate fresh channel buffers — the
// per-cycle allocation cost is a handful of fixed-size objects (capture
// struct, clock state, time grids), independent of how many cycles ran.
func TestCaptureReleaseSteadyStateAllocs(t *testing.T) {
	ti, err := New(poolConfig())
	if err != nil {
		t.Fatal(err)
	}
	tone := &sig.Tone{Amp: 0.7, Freq: 13e6}
	allocsAt := func(n int) float64 {
		cycle := func() {
			c, err := ti.Capture(tone, 1e-8, 180e-12, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			c.Release()
		}
		cycle() // warm the pools at this size
		return testing.AllocsPerRun(20, cycle)
	}
	small, big := allocsAt(256), allocsAt(4096)
	// The per-cycle overhead is a fixed set of objects (capture struct,
	// clock state, time grids, pool headers); the channel buffers — the
	// only size-proportional part — come from the pool. Without pooling
	// the 4096-sample cycle would add four large buffers the 256-sample
	// one does not, so a widening gap flags a pool regression.
	if big > small+6 {
		t.Fatalf("allocs grew with capture size: %.0f at n=256 vs %.0f at n=4096; channel buffers are no longer pooled", small, big)
	}
}
