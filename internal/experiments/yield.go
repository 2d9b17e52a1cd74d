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

// RunYieldExperiment simulates two lots of nUnits devices: one drawn from
// the typical (in-spec) process spread, one from a marginal lot whose IQ
// quadrature spread straddles the IRR limit. A healthy test program shows
// ~100 % yield on the first and a meaningful fallout on the second with no
// measurement-induced (false-alarm) loss.
func RunYieldExperiment(nUnits int, scale float64) (*YieldResult, error) {
	if nUnits <= 0 {
		nUnits = 12
	}
	if scale <= 0 || scale > 1 {
		scale = 0.5
	}
	base := core.ScaleAcquisition(core.PaperScenario(), scale)
	base.CaptureLen = max(base.CaptureLen, 900)
	base.NTimes = 150
	base.IRRTest = true

	marginal := core.TypicalSpread()
	marginal.IQPhaseSigmaDeg = 2.5
	marginal.IQGainSigmaDB = 0.4
	// The two lots are independent Monte-Carlo runs (RunYield itself fans
	// its units over the same pool), so they proceed concurrently.
	lots := []struct {
		name   string
		spread core.ProcessSpread
		seed   int64
	}{
		{"in-spec lot", core.TypicalSpread(), 1001},
		{"marginal lot", marginal, 1002},
	}
	reps, err := par.MapErr(len(lots), func(i int) (*core.YieldReport, error) {
		rep, err := core.RunYield(base, lots[i].spread, nUnits, lots[i].seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", lots[i].name, err)
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
