package campaign

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/par"
)

// planGrid is the cheapest credible campaign: one short-burst stimulus
// against two catalogue faults (plus the implicit healthy row) at the
// minimum acquisition floor.
func planGrid() Grid {
	return Grid{
		Stimuli: []StimulusSpec{{
			Name:          "qpsk-tiny",
			Constellation: "QPSK",
			PRBSOrder:     7,
			PRBSSeed:      0x55,
			BurstLen:      64,
			BackoffDB:     0,
			Mask:          "wideband-qpsk-15M",
		}},
		Faults:         []string{"pa-compression", "dead-gain"},
		Units:          1,
		Seed:           42,
		Scale:          0.1,
		YieldThreshold: 0.5,
	}
}

func TestPlanCellsSortedAndKeyed(t *testing.T) {
	g := planGrid()
	p, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(p.Cells), 3; got != want { // healthy + 2 faults
		t.Fatalf("plan has %d cells, want %d", got, want)
	}
	if !sort.SliceIsSorted(p.Cells, func(i, j int) bool {
		if p.Cells[i].Stimulus.Name != p.Cells[j].Stimulus.Name {
			return p.Cells[i].Stimulus.Name < p.Cells[j].Stimulus.Name
		}
		return p.Cells[i].Fault.Name < p.Cells[j].Fault.Name
	}) {
		t.Error("plan cells not sorted by (stimulus, fault)")
	}
	seen := map[string]bool{}
	for _, c := range p.Cells {
		if seen[c.Key()] {
			t.Errorf("duplicate cell key %q", c.Key())
		}
		seen[c.Key()] = true
		if c.Seed == 0 {
			t.Errorf("cell %s has zero seed", c.Key())
		}
	}
}

func TestPlanGridHashStableAndContentSensitive(t *testing.T) {
	p1, err := NewPlan(planGrid())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlan(planGrid())
	if err != nil {
		t.Fatal(err)
	}
	h1, err := p1.GridHash()
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := p2.GridHash()
	if h1 != h2 {
		t.Errorf("same grid hashed differently: %s vs %s", h1, h2)
	}
	g := planGrid()
	g.Seed++
	p3, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	if h3, _ := p3.GridHash(); h3 == h1 {
		t.Error("different grids share a hash")
	}
}

func TestShardIndicesPartition(t *testing.T) {
	p, err := NewPlan(planGrid())
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{1, 2, 3, 5} {
		covered := map[int]int{}
		for idx := 0; idx < count; idx++ {
			ids, err := p.ShardIndices(idx, count)
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range ids {
				covered[i]++
			}
		}
		if len(covered) != len(p.Cells) {
			t.Errorf("shards of %d cover %d cells, want %d", count, len(covered), len(p.Cells))
		}
		for i, n := range covered {
			if n != 1 {
				t.Errorf("count %d: cell %d covered %d times", count, i, n)
			}
		}
	}
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {0, 0}} {
		if _, err := p.ShardIndices(bad[0], bad[1]); err == nil {
			t.Errorf("shard %d/%d accepted", bad[0], bad[1])
		}
	}
}

// TestRunEqualsIncrementalFold pins that the batch Run and the cell-by-
// cell primitive path the fleet service uses produce byte-identical
// matrices at several worker counts.
func TestRunEqualsIncrementalFold(t *testing.T) {
	g := planGrid()
	want, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := want.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		prev := par.SetWorkers(w)
		p, err := NewPlan(g)
		if err != nil {
			par.SetWorkers(prev)
			t.Fatal(err)
		}
		var cells []CellResult
		for i := range p.Cells {
			r, err := p.RunCell(i, nil)
			if err != nil {
				par.SetWorkers(prev)
				t.Fatal(err)
			}
			cells = append(cells, r)
		}
		got, err := p.Fold(cells).MarshalCanonical()
		par.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(wantB) {
			t.Errorf("workers=%d: incremental fold differs from Grid.Run", w)
		}
	}
}

// TestUnitVerdictObserver pins the per-unit stream: one verdict per device
// in lot order, consistent with the cell aggregate.
func TestUnitVerdictObserver(t *testing.T) {
	g := planGrid()
	g.Units = 2
	p, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	var verdicts []UnitVerdict
	r, err := p.RunCell(0, func(v UnitVerdict) { verdicts = append(verdicts, v) })
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != g.Units {
		t.Fatalf("observer saw %d verdicts, want %d", len(verdicts), g.Units)
	}
	rejected := 0
	for u, v := range verdicts {
		if v.Unit != u {
			t.Errorf("verdict %d carries unit %d", u, v.Unit)
		}
		if v.Stimulus != r.Stimulus || v.Fault != r.Fault {
			t.Errorf("verdict %d names %s/%s, cell is %s/%s", u, v.Stimulus, v.Fault, r.Stimulus, r.Fault)
		}
		if !v.Pass || v.Err != "" {
			rejected++
		}
	}
	if rejected != r.Rejected {
		t.Errorf("observer counted %d rejections, cell aggregate says %d", rejected, r.Rejected)
	}
}

// TestCellResultHasMargin pins the satellite bugfix: a cell where no unit
// produced a mask verdict reports HasMargin=false (not a fake 0 dB
// margin), and a normal cell reports HasMargin=true even when its worst
// margin is numerically close to 0.
func TestCellResultHasMargin(t *testing.T) {
	p, err := NewPlan(planGrid())
	if err != nil {
		t.Fatal(err)
	}

	// Normal path: the healthy cell measures a mask margin.
	var healthyIdx = -1
	for i, c := range p.Cells {
		if c.Fault.Name == healthyName {
			healthyIdx = i
		}
	}
	r, err := p.RunCell(healthyIdx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.HasMargin {
		t.Error("healthy cell produced no mask margin")
	}

	// Error path: a fault that breaks the configuration makes every unit
	// unmeasurable — rejected, errored, and with no mask verdict at all.
	i := healthyIdx
	p.Cells[i].Fault = core.Fault{
		Name:       "broken-config",
		ShouldFail: true,
		Apply:      func(c *core.Config) { c.Fc = -1 },
	}
	r, err = p.RunCell(i, func(v UnitVerdict) {
		if v.Err == "" {
			t.Error("unit verdict missing the run error")
		}
		if v.HasMargin {
			t.Error("unit verdict claims a margin from an errored run")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Errors != r.Units || r.Rejected != r.Units {
		t.Errorf("broken cell: errors=%d rejected=%d, want both = units %d", r.Errors, r.Rejected, r.Units)
	}
	if r.HasMargin {
		t.Error("cell with no mask verdicts reports HasMargin=true")
	}
	if r.WorstMarginDB != 0 {
		t.Errorf("cell with no mask verdicts carries margin %g, want 0", r.WorstMarginDB)
	}
}
