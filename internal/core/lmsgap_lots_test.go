package core_test

import (
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
)

// goldenLots returns, by name, the configuration of every unit whose LMS
// estimate a lot golden pins: the mask-BIST rows (RunMaskBIST(0.3)), the
// two yield lots (RunYieldExperiment(4, 0.4)), the default coverage grid
// (RunCoverage(nil, 0.3)) and bistlab's campaign smoke grid.
func goldenLots(t *testing.T) (names []string, cfgs []core.Config) {
	t.Helper()
	add := func(name string, cfg core.Config) {
		names, cfgs = append(names, name), append(cfgs, cfg)
	}

	mask := core.ScaleAcquisition(core.PaperScenario(), 0.3)
	add("maskbist/healthy", mask)
	for _, f := range core.Catalog() {
		cfg := mask
		f.Apply(&cfg)
		add("maskbist/"+f.Name, cfg)
	}

	base, lots := experiments.YieldSetup(0.4)
	for _, lot := range lots {
		for u := 0; u < 4; u++ {
			add(fmt.Sprintf("yield/%s/%d", lot.Name, u), core.UnitConfig(base, lot.Spread, lot.Seed, u))
		}
	}

	coverage := campaign.DefaultGrid()
	coverage.Scale = 0.3
	smoke, err := os.ReadFile("../../cmd/bistlab/testdata/campaign_smoke_grid.json")
	if err != nil {
		t.Fatal(err)
	}
	smokeGrid, err := campaign.ParseGrid(smoke)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		grid campaign.Grid
	}{{"coverage", coverage}, {"campaign_smoke", smokeGrid}} {
		p, err := campaign.NewPlan(g.grid)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range p.Cells {
			for u := 0; u < p.Grid.Units; u++ {
				cfg, err := p.UnitConfig(i, u)
				if err != nil {
					t.Fatal(err)
				}
				add(fmt.Sprintf("%s/%s/%s/%d", g.name, c.Stimulus.Name, c.Fault.Name, u), cfg)
			}
		}
	}
	return names, cfgs
}

// TestLMSDecisionGaps pins why a kernel change inside the estimate-stage
// cost tier (1e-9 relative, DESIGN §5f) cannot move CostEvals, DHistory,
// DHat or a verdict of a lot golden: every accept/halve comparison of
// Algorithm 1 on every unit those goldens run is decided by a relative
// cost gap of at least twice that tier, so no in-tier change flips one.
func TestLMSDecisionGaps(t *testing.T) {
	const costTier = 1e-9
	names, cfgs := goldenLots(t)
	worst, at, comparisons := math.Inf(1), "", 0
	for i, cfg := range cfgs {
		g, n := core.UnitDecisionGap(t, cfg)
		comparisons += n
		if g < worst {
			worst, at = g, names[i]
		}
	}
	t.Logf("smallest decision gap %.3g (%s) over %d units, %d comparisons", worst, at, len(cfgs), comparisons)
	if worst < 2*costTier {
		t.Errorf("unit %s: a comparison is decided by a relative cost gap of %.3g, under 2 × the %g cost tier",
			at, worst, costTier)
	}
}
