package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/par"
)

// YieldResult is the Monte-Carlo production experiment: an in-spec lot and
// a marginal lot through the full BIST.
type YieldResult struct {
	InSpec   *core.YieldReport
	Marginal *core.YieldReport
	Units    int
}

// YieldLot is one Monte-Carlo lot of the yield experiment: the process
// spread its units are drawn from and the seed they are drawn under.
type YieldLot struct {
	Name   string
	Spread core.ProcessSpread
	Seed   int64
}

// YieldSetup returns the yield experiment's base configuration at the
// given acquisition scale and its two lots: one drawn from the typical
// (in-spec) process spread, one marginal lot whose IQ quadrature spread
// straddles the IRR limit.
func YieldSetup(scale float64) (core.Config, []YieldLot) {
	base := core.ScaleAcquisition(core.PaperScenario(), scale)
	base.CaptureLen = max(base.CaptureLen, 900)
	base.NTimes = 150
	base.IRRTest = true

	marginal := core.TypicalSpread()
	marginal.IQPhaseSigmaDeg = 2.5
	marginal.IQGainSigmaDB = 0.4
	return base, []YieldLot{
		{"in-spec lot", core.TypicalSpread(), 1001},
		{"marginal lot", marginal, 1002},
	}
}

// RunYieldExperiment simulates the two YieldSetup lots of nUnits devices
// each through the full BIST. A healthy test program shows ~100 % yield
// on the in-spec lot and a meaningful fallout on the marginal one with no
// measurement-induced (false-alarm) loss.
func RunYieldExperiment(nUnits int, scale float64) (*YieldResult, error) {
	if nUnits <= 0 {
		nUnits = 12
	}
	if scale <= 0 || scale > 1 {
		scale = 0.5
	}
	base, lots := YieldSetup(scale)
	// The two lots are independent Monte-Carlo runs (RunYield itself fans
	// its units over the same pool), so they proceed concurrently.
	reps, err := par.MapErr(len(lots), func(i int) (*core.YieldReport, error) {
		rep, err := core.RunYield(base, lots[i].Spread, nUnits, lots[i].Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", lots[i].Name, err)
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	return &YieldResult{InSpec: reps[0], Marginal: reps[1], Units: nUnits}, nil
}

// Render prints the lot comparison.
func (r *YieldResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Monte-Carlo production yield (%d units per lot, full BIST per unit)\n", r.Units)
	rows := [][]string{
		{"in-spec lot", fmt.Sprintf("%.0f%%", 100*r.InSpec.Yield),
			fmt.Sprintf("%.2f ps", r.InSpec.WorstSkewPS),
			fmt.Sprintf("%+.1f dB", r.InSpec.WorstMarginDB)},
		{"marginal-IQ lot", fmt.Sprintf("%.0f%%", 100*r.Marginal.Yield),
			fmt.Sprintf("%.2f ps", r.Marginal.WorstSkewPS),
			fmt.Sprintf("%+.1f dB", r.Marginal.WorstMarginDB)},
	}
	writeTable(w, []string{"lot", "yield", "worst skew err", "worst mask margin"}, rows)
	fmt.Fprintln(w, "The in-spec lot passes wholesale (no false alarms from the instrument); the marginal lot shows real fallout at the IRR limit.")
}
