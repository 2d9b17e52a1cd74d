package campaign

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// TestCampaignReusesCostTableGeometry: every unit u of every cell draws
// its evaluation instants from TimesSeed + u, and no stimulus or fault
// moves the band or the capture, so DefaultGrid at two units has four
// cost-table geometries, and a rerun folds every table over a cached one.
// The matrices stay byte-identical. The first run admits the geometries on
// their second sighting; a run after it is served them all (the third run
// is the one checked in full, so entries left by other tests have aged out
// of the cache's working set).
func TestCampaignReusesCostTableGeometry(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	g := DefaultGrid()
	g.Units = 2
	g.Scale = 0.35
	counts := func() (hits, misses int64) {
		s := obs.Default().Snapshot()
		return s.Counters["pnbs.costtable.geometry.hits"], s.Counters["pnbs.costtable.geometry.misses"]
	}
	m, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	lookups := int64(2 * len(m.Cells) * g.Units)
	for run := 2; run <= 3; run++ {
		h0, m0 := counts()
		if b := canonicalMatrix(t, g); !bytes.Equal(b, ref) {
			t.Fatalf("run %d: matrix bytes differ from the first run", run)
		}
		h1, m1 := counts()
		hits, misses := h1-h0, m1-m0
		if hits+misses != lookups {
			t.Fatalf("run %d: %d hits + %d misses, want %d table builds", run, hits, misses, lookups)
		}
		if hits == 0 || run == 3 && misses != 0 {
			t.Fatalf("run %d: %d hits, %d misses of %d builds", run, hits, misses, lookups)
		}
	}
}
