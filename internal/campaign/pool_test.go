package campaign

import (
	"runtime"
	"testing"

	"repro/internal/par"
)

// TestCampaignAllocsFlatAcrossWorkers pins the shared-cache contract end
// to end: once the gain cache is warm, the heap growth of one grid run must
// not scale with the worker count — widening the pool only changes how many
// units are in flight at once, not how much each allocates. A regression
// that re-derives the gain per cell (or per worker) shows up as a
// worker-proportional or grossly inflated byte count.
func TestCampaignAllocsFlatAcrossWorkers(t *testing.T) {
	g := tinyGrid()
	run := func() {
		if _, err := g.Run(); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(w int) uint64 {
		old := par.SetWorkers(w)
		defer par.SetWorkers(old)
		run() // warm caches and pools at this width
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	a1 := measure(1)
	for _, w := range []int{2, 8} {
		aw := measure(w)
		// A GC between the ReadMemStats pair can drain the FFT scratch and
		// reconstructor pools and force a refill, so allow slack; the regression signature (per-cell
		// buffers reallocated every run) costs several multiples.
		if float64(aw) > 2*float64(a1)+1<<20 {
			t.Fatalf("workers=%d allocates %d bytes per run vs %d at workers=1; the shared caches are not holding", w, aw, a1)
		}
	}
}
