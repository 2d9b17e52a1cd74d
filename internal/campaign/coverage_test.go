package campaign

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/par"
)

// tinyGrid is the metamorphic-test workload: two stimuli at opposite drive
// corners crossed with three faults, at the scale floor — small enough to
// run three times in a test, rich enough to exercise detections, escapes
// and the healthy baseline.
func tinyGrid() Grid {
	return Grid{
		Stimuli: []StimulusSpec{
			{
				Name:          "qpsk-hot",
				Constellation: "QPSK",
				PRBSOrder:     15,
				PRBSSeed:      0x2A5B,
				BurstLen:      128,
				BackoffDB:     -3,
				Mask:          "wideband-qpsk-15M",
			},
			{
				Name:          "qam16-cold",
				Constellation: "16QAM",
				PRBSOrder:     23,
				PRBSSeed:      0x7FFF1,
				BurstLen:      128,
				BackoffDB:     6,
				Mask:          "wideband-qpsk-15M",
			},
		},
		Faults:         []string{"pa-compression", "lo-spur-comb", "dcde-stuck"},
		Units:          1,
		Seed:           1701,
		Scale:          0.1,
		YieldThreshold: 0.5,
	}
}

func canonicalMatrix(t *testing.T, g Grid) []byte {
	t.Helper()
	m, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCampaignWorkerCountInvariance: the detection matrix is byte-identical
// at 1, 2 and 8 workers. Cell randomness derives from (grid seed, cell
// content, unit index), never from scheduling, so sharding is free.
func TestCampaignWorkerCountInvariance(t *testing.T) {
	g := tinyGrid()
	var ref []byte
	for _, w := range []int{1, 2, 8} {
		old := par.SetWorkers(w)
		b := canonicalMatrix(t, g)
		par.SetWorkers(old)
		if ref == nil {
			ref = b
			continue
		}
		if !bytes.Equal(ref, b) {
			t.Fatalf("workers=%d: matrix bytes differ from workers=1", w)
		}
	}
}

// TestCampaignRowOrderInvariance: permuting the grid's stimulus or fault
// row order leaves the matrix bytes unchanged — cells are seeded by
// content and the report is sorted by name (the MarshalCanonical
// contract), so a grid file is a set, not a sequence.
func TestCampaignRowOrderInvariance(t *testing.T) {
	ref := canonicalMatrix(t, tinyGrid())

	perm := tinyGrid()
	perm.Stimuli[0], perm.Stimuli[1] = perm.Stimuli[1], perm.Stimuli[0]
	perm.Faults = []string{"dcde-stuck", "pa-compression", "lo-spur-comb"}
	if got := canonicalMatrix(t, perm); !bytes.Equal(ref, got) {
		t.Fatal("permuted grid produced different matrix bytes")
	}
}

// TestCampaignSeedMatters: the grid seed must actually reach the per-unit
// draws — otherwise the invariance tests above would pass vacuously.
func TestCampaignSeedMatters(t *testing.T) {
	g := tinyGrid()
	ref := canonicalMatrix(t, g)
	g.Seed = 9999
	if bytes.Equal(ref, canonicalMatrix(t, g)) {
		t.Fatal("different grid seeds produced identical matrices")
	}
}

// TestCampaignMatrixShape: structural sanity of the fold — cell count,
// sorted order, healthy baseline present, marginals complete.
func TestCampaignMatrixShape(t *testing.T) {
	g := tinyGrid()
	m, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(g.Stimuli) * (len(g.Faults) + 1) // + healthy baseline
	if len(m.Cells) != wantCells {
		t.Fatalf("cells: got %d, want %d", len(m.Cells), wantCells)
	}
	for i := 1; i < len(m.Cells); i++ {
		a, b := m.Cells[i-1], m.Cells[i]
		if a.Stimulus > b.Stimulus || (a.Stimulus == b.Stimulus && a.Fault >= b.Fault) {
			t.Fatalf("cells not sorted at %d: %s/%s then %s/%s", i, a.Stimulus, a.Fault, b.Stimulus, b.Fault)
		}
	}
	if len(m.PerFault) != len(g.Faults)+1 || len(m.PerStimulus) != len(g.Stimuli) {
		t.Fatalf("marginals incomplete: %d faults, %d stimuli", len(m.PerFault), len(m.PerStimulus))
	}
	healthySeen := false
	for _, f := range m.PerFault {
		if f.Fault == "healthy" {
			healthySeen = true
			if f.ShouldFail {
				t.Error("healthy baseline marked ShouldFail")
			}
		}
	}
	if !healthySeen {
		t.Error("healthy baseline row missing")
	}
	for _, c := range m.Cells {
		if c.Units != g.Units {
			t.Errorf("%s/%s: units %d", c.Stimulus, c.Fault, c.Units)
		}
		if c.DetectionRate < 0 || c.DetectionRate > 1 {
			t.Errorf("%s/%s: detection rate %g out of range", c.Stimulus, c.Fault, c.DetectionRate)
		}
	}
}

// TestCampaignRejectsBadGrid: Run validates before spending any cycles.
func TestCampaignRejectsBadGrid(t *testing.T) {
	g := tinyGrid()
	g.Faults = []string{"no-such-fault"}
	if _, err := g.Run(); err == nil {
		t.Fatal("expected an unknown-fault error")
	}
	g = tinyGrid()
	g.Stimuli = nil
	if _, err := g.Run(); err == nil {
		t.Fatal("expected an empty-grid error")
	}
}

// TestRenderCellWithoutMarginSaysNA: a cell with no mask verdict renders
// its worst margin as n/a, never as a measured +0.0 dB.
func TestRenderCellWithoutMarginSaysNA(t *testing.T) {
	g := tinyGrid().withDefaults()
	cell := CellResult{Stimulus: "s", Fault: "broken", ShouldFail: true, Units: 2, Rejected: 2, Errors: 2, DetectionRate: 1}
	var buf bytes.Buffer
	g.fold([]CellResult{cell}).Render(&buf)
	var row string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "s ") {
			row = line
		}
	}
	if !strings.HasSuffix(row, " n/a") || strings.Contains(row, "dB") {
		t.Errorf("no-margin cell row = %q, want worst margin n/a", row)
	}
}
