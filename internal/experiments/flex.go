package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/pnbs"
)

// FlexRow summarises one multistandard configuration.
type FlexRow struct {
	Label string
	Fc    float64
	B     float64
	// PNBSRate is the total PNBS conversion rate (2B, always minimal).
	PNBSRate float64
	// PBSWindow is the narrowest constraint the best alias-free uniform
	// rate must satisfy (clock precision budget, +- Hz); Inf when simple
	// oversampling is the only option.
	PBSMinRate    float64
	PBSPrecision  float64
	SkewErrPS     float64
	ReconErr      float64
	MaskPass      bool
	LMSIterations int
}

// FlexResult is the Section II-B flexibility experiment (E9): the same BIST
// runs unchanged across waveforms and carriers at the minimal rate, while
// the PBS baseline needs per-configuration rate planning with kHz-level
// precision.
type FlexResult struct {
	Rows []FlexRow
}

// RunFlex executes every multistandard scenario at the given scale (see
// RunMaskBIST for the scale semantics).
func RunFlex(scale float64) (*FlexResult, error) {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	res := &FlexResult{}
	for _, cfg := range core.MultistandardScenarios() {
		cfg = core.ScaleAcquisition(cfg, scale)
		// The empirical cost minimum wanders as 1/sqrt(NTimes); higher
		// carriers are more sensitive (Eq. 4), so never go below the
		// paper's N = 300 here.
		cfg.NTimes = 300
		cfg.GroundTruth = true // the row reports Delta-epsilon
		b, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		rep, err := b.Run()
		if err != nil {
			return nil, fmt.Errorf("experiments: flex %s@%.3g: %w", cfg.Constellation, cfg.Fc, err)
		}
		band := b.Band()
		win, err := pnbs.MinAliasFreeRate(band)
		if err != nil {
			return nil, err
		}
		label := cfg.Name
		if label == "" {
			label = cfg.Constellation
		}
		res.Rows = append(res.Rows, FlexRow{
			Label:         fmt.Sprintf("%s %.3g MHz @ %.3g GHz", label, cfg.SymbolRate/1e6, cfg.Fc/1e9),
			Fc:            cfg.Fc,
			B:             cfg.B,
			PNBSRate:      2 * cfg.B,
			PBSMinRate:    win.Lo,
			PBSPrecision:  pnbs.RequiredClockPrecision(win),
			SkewErrPS:     rep.SkewErrPS(),
			ReconErr:      rep.ReconRelErr,
			MaskPass:      rep.Mask != nil && rep.Mask.Pass,
			LMSIterations: rep.LMS.Iterations,
		})
	}
	return res, nil
}

// Render prints the comparison.
func (r *FlexResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Multistandard flexibility — PNBS BIST vs PBS rate planning")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Label,
			fmt.Sprintf("%.0f", row.PNBSRate/1e6),
			fmt.Sprintf("%.3f", row.PBSMinRate/1e6),
			fmt.Sprintf("%.1f", row.PBSPrecision/1e3),
			fmt.Sprintf("%.3f", row.SkewErrPS),
			pct(row.ReconErr),
			fmt.Sprintf("%v", row.MaskPass),
			fmt.Sprintf("%d", row.LMSIterations),
		})
	}
	writeTable(w, []string{"configuration", "PNBS rate [MHz]", "PBS min rate [MHz]",
		"PBS +-prec [kHz]", "skew err [ps]", "recon err", "mask", "LMS iters"}, rows)
	fmt.Fprintln(w, "PNBS always runs at the theoretical minimum 2B regardless of carrier; PBS needs a per-configuration rate hunt with kHz-level clock precision.")
}
