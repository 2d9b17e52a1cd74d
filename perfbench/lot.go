package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/par"
)

// lot-campaign runs DefaultGrid (4 stimuli x healthy + 12 extended faults
// = 52 cells) at lotScale with lotUnits units per cell. One pass is one
// grid lot with its own seed; its cells fan out over the par pool exactly
// as Grid.Run does.
const (
	lotUnits = 3
	lotScale = 0.35
	// lotPassSeconds is the nominal length of one pass on a 2-vCPU host.
	lotPassSeconds = 1.5
	// lotMinPasses keeps at least ten cells beyond p95.
	lotMinPasses = 4
)

func lotPasses(seconds int) int {
	return max(lotMinPasses, int(math.Ceil(float64(seconds)/lotPassSeconds)))
}

// lotGrid is pass p's lot: DefaultGrid with the seed's lot seed for p.
func lotGrid(seed int64, p int) campaign.Grid {
	g := campaign.DefaultGrid()
	g.Units = lotUnits
	g.Scale = lotScale
	g.Seed = mixSeed(seed, int64(p))
	return g
}

type lotBench struct {
	seed    int64
	seconds int
	plans   []*campaign.Plan
	foldMS  []float64
}

func newLotBench(seed int64, seconds int) bench {
	return &lotBench{seed: seed, seconds: seconds}
}

func (b *lotBench) setup() error {
	b.plans = nil
	for p := 0; p < lotPasses(b.seconds); p++ {
		plan, err := campaign.NewPlan(lotGrid(b.seed, p))
		if err != nil {
			return err
		}
		b.plans = append(b.plans, plan)
	}
	// Warm-up: one cell of every stimulus and every fault row, from a lot
	// no timed pass uses.
	warm, err := campaign.NewPlan(lotGrid(b.seed, -1))
	if err != nil {
		return err
	}
	rows := len(warm.Cells) / len(warm.Grid.Stimuli)
	for r := 0; r < rows; r++ {
		i := (r%len(warm.Grid.Stimuli))*rows + r
		if st, _ := runCell(warm, i); st.failed {
			return fmt.Errorf("warm-up cell %d failed its output check", i)
		}
	}
	return nil
}

func (b *lotBench) passes() int { return lotPasses(b.seconds) }

func (b *lotBench) runPass(p int) ([]opStat, error) {
	plan := b.plans[p]
	stats := make([]opStat, len(plan.Cells))
	cells := make([]campaign.CellResult, len(plan.Cells))
	par.For(len(plan.Cells), func(i int) {
		stats[i], cells[i] = runCell(plan, i)
	})
	t0 := time.Now()
	m := plan.Fold(cells)
	b.foldMS = append(b.foldMS, msSince(t0))
	if len(m.Cells) != len(plan.Cells) || m.Errors != 0 {
		return stats, fmt.Errorf("matrix holds %d cells and %d errors, want %d and 0",
			len(m.Cells), m.Errors, len(plan.Cells))
	}
	return stats, nil
}

// runCell runs one cell, timing it and its first unit verdict, and checks
// the cell against the verdicts it streamed.
func runCell(plan *campaign.Plan, i int) (opStat, campaign.CellResult) {
	c := plan.Cells[i]
	st := opStat{kind: c.Fault.Name, stimulus: c.Stimulus.Name}
	var verdicts []campaign.UnitVerdict
	t0 := time.Now()
	res, err := plan.RunCell(i, func(v campaign.UnitVerdict) {
		if len(verdicts) == 0 {
			st.firstMS = msSince(t0)
		}
		verdicts = append(verdicts, v)
	})
	st.ms = msSince(t0)
	if err == nil {
		err = checkCell(res, verdicts, plan.Grid.Units)
	}
	st.units = len(verdicts)
	st.failed = err != nil
	return st, res
}

// checkCell checks a cell's aggregate against its streamed unit verdicts:
// one verdict per unit in lot order, Rejected and Errors matching them, and
// no unit that failed to run.
func checkCell(c campaign.CellResult, vs []campaign.UnitVerdict, units int) error {
	if c.Units != units || len(vs) != units {
		return fmt.Errorf("cell %s/%s: %d units and %d verdicts, want %d", c.Stimulus, c.Fault, c.Units, len(vs), units)
	}
	rejected, errs := 0, 0
	for u, v := range vs {
		if v.Unit != u || v.Stimulus != c.Stimulus || v.Fault != c.Fault {
			return fmt.Errorf("cell %s/%s: verdict %d is for %s/%s unit %d", c.Stimulus, c.Fault, u, v.Stimulus, v.Fault, v.Unit)
		}
		if v.Err != "" {
			errs++
		}
		if v.Err != "" || !v.Pass {
			rejected++
		}
	}
	if rejected != c.Rejected || errs != c.Errors || errs != 0 {
		return fmt.Errorf("cell %s/%s: rejected %d errors %d, verdicts give %d and %d (want 0 errors)",
			c.Stimulus, c.Fault, c.Rejected, c.Errors, rejected, errs)
	}
	return nil
}

func (b *lotBench) layers(m metrics, plain []opStat) error {
	planMS, err := timePlan(lotGrid(b.seed, 0))
	if err != nil {
		return err
	}
	m.set("campaign.plan_ms", planMS, "ms")
	m.set("campaign.fold_ms", median(b.foldMS), "ms")
	byStim := map[string][]float64{}
	for _, s := range plain {
		byStim[s.stimulus] = append(byStim[s.stimulus], s.ms)
	}
	for stim, xs := range byStim {
		m.set("campaign.cell_p50_ms."+stim, median(xs), "ms")
	}
	return nil
}

// timePlan is the median time of campaign.NewPlan on a grid.
func timePlan(g campaign.Grid) (float64, error) {
	var xs []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		if _, err := campaign.NewPlan(g); err != nil {
			return 0, err
		}
		xs = append(xs, msSince(t0))
	}
	return median(xs), nil
}

func (b *lotBench) probe() ([]probeUnit, error) { return cellProbe(b.plans[0], 0) }

func (b *lotBench) close() {}

// cellProbe rebuilds the devices of a plan's cell i for the kernel tier and
// pairs each with the verdict the cell streams for it, which checks the
// rebuild against the campaign engine.
func cellProbe(plan *campaign.Plan, i int) ([]probeUnit, error) {
	c := plan.Cells[i]
	var out []probeUnit
	_, err := plan.RunCell(i, func(v campaign.UnitVerdict) {
		cfg := core.UnitConfig(campaignBase(plan.Grid.Scale), core.TypicalSpread(), c.Seed, v.Unit)
		if c.Fault.Apply != nil {
			c.Fault.Apply(&cfg)
		}
		out = append(out, probeUnit{cfg: cfg, pass: v.Pass})
	})
	if err != nil {
		return nil, err
	}
	for j := range out {
		cfg, err := c.Stimulus.Configure(out[j].cfg)
		if err != nil {
			return nil, err
		}
		out[j].cfg = cfg
	}
	return out, nil
}

// campaignBase mirrors the campaign engine's scaled paper scenario: the
// captures, estimation instants and PSD shrink with the grid's scale,
// floored where the estimator stops being credible. cellProbe's verdict
// check catches any drift from the engine.
func campaignBase(scale float64) core.Config {
	c := core.PaperScenario()
	c.CaptureLen = max(int(2200*scale), 700)
	c.NTimes = max(int(300*scale), 60)
	c.PSDLen = max(int(2048*scale), 512)
	c.SegLen = c.PSDLen / 4
	return c
}

// mixSeed derives a sub-seed (SplitMix64 finaliser), so consecutive passes
// and ops of one seed get decorrelated lot seeds.
func mixSeed(seed, i int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
