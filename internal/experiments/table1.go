package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/obs/trace"
	"repro/internal/par"
	"repro/internal/rf"
	"repro/internal/sig"
	"repro/internal/skew"
)

// Table1Row is one estimator evaluation: the paper's three metrics.
type Table1Row struct {
	// Label identifies the technique and its parameter.
	Label string
	// AbsErr is |D-hat - D| in seconds.
	AbsErr float64
	// RelErr is |1 - D-hat/D|.
	RelErr float64
	// ReconErr is the relative error of the test-signal reconstruction
	// performed with D-hat (the paper's Delta-epsilon column).
	ReconErr float64
}

// Table1Result reproduces Table I: the sinusoid-based technique adapted
// from [14] at two test frequencies versus the LMS technique from two
// starting estimates.
type Table1Result struct {
	DTrue float64
	Rows  []Table1Row
	// AuxRows holds the idealised coherent-fit adaptation of [14] at the
	// same frequencies: together with Rows it brackets the paper's
	// baseline (see EXPERIMENTS.md, "baseline ordering").
	AuxRows []Table1Row
	// FloorErr is the reconstruction error with the exact delay — the
	// jitter/quantization floor (paper: 0.84 %).
	FloorErr float64
}

// RunTable1 regenerates Table I from 220-sample rate-B captures.
func RunTable1(s PaperSetup) (*Table1Result, error) {
	const nB = 220
	ce, out, actualD, err := s.Acquire(nB, 0)
	if err != nil {
		return nil, err
	}
	truth := sig.SampleAt(out, ce.Times())
	reconErr := func(dHat float64) (float64, error) {
		got, err := ce.Reconstruct(dHat)
		if err != nil {
			return 0, err
		}
		return dsp.RelRMSError(got, truth), nil
	}
	res := &Table1Result{DTrue: actualD}
	if res.FloorErr, err = reconErr(actualD); err != nil {
		return nil, err
	}
	paper := core.PaperScenario()
	band, m := paper.Band(), ce.M()

	// The four estimator evaluations — the sinusoid baseline at omega0 =
	// 0.4 B and 0.46 B (each with its own tone transmitter and capture)
	// and the LMS from the paper's two starting estimates — are mutually
	// independent, so they fan out over the pool. Results land in the
	// table's row order regardless of scheduling.
	fracs := []float64{0.40, 0.46}
	d0s := []float64{50e-12, 400e-12}
	type unit struct {
		row, aux Table1Row
		hasAux   bool
	}
	units, err := par.MapErr(len(fracs)+len(d0s), func(i int) (unit, error) {
		if i >= len(fracs) {
			// LMS technique on the shared (concurrency-safe) evaluator.
			d0 := d0s[i-len(fracs)]
			r, err := skew.EstimateLMS(trace.Root, ce.Cost, d0, ce.M())
			if err != nil {
				return unit{}, err
			}
			re, err := reconErr(r.DHat)
			if err != nil {
				return unit{}, err
			}
			return unit{row: Table1Row{
				Label:    fmt.Sprintf("LMS, D0 = %.0f ps", d0*1e12),
				AbsErr:   math.Abs(r.DHat - actualD),
				RelErr:   math.Abs(1 - r.DHat/actualD),
				ReconErr: re,
			}}, nil
		}
		// Sinusoid-based baseline.
		frac := fracs[i]
		f0, err := skew.SineTestFrequency(band, band.B, frac*band.B)
		if err != nil {
			return unit{}, err
		}
		fb := f0 - band.Fc()
		toneTx, err := rf.NewTransmitter(rf.TxConfig{Fc: band.Fc()},
			&sig.ComplexTone{Amp: 1, Freq: fb})
		if err != nil {
			return unit{}, err
		}
		ti, err := s.sampler()
		if err != nil {
			return unit{}, err
		}
		cap0, err := ti.Capture(toneTx.Output(), band.T(), paper.NominalD, 0, nB)
		if err != nil {
			return unit{}, err
		}
		scfg := skew.SineEstimateConfig{F0: f0, B: band.B, T0: cap0.T0, DMax: m}
		dHat, err := skew.EstimateJamalInterp(scfg, cap0.Ch0, cap0.Ch1)
		if err != nil {
			return unit{}, err
		}
		re, err := reconErr(dHat)
		if err != nil {
			return unit{}, err
		}
		u := unit{row: Table1Row{
			Label:    fmt.Sprintf("sine [14], w0 = %.2f B", frac),
			AbsErr:   math.Abs(dHat - actualD),
			RelErr:   math.Abs(1 - dHat/actualD),
			ReconErr: re,
		}}
		// Auxiliary: the idealised coherent-fit adaptation on the same data.
		dFit, err := skew.EstimateSine(scfg, cap0.Ch0, cap0.Ch1)
		if err != nil {
			return unit{}, err
		}
		reFit, err := reconErr(dFit)
		if err != nil {
			return unit{}, err
		}
		u.aux = Table1Row{
			Label:    fmt.Sprintf("coherent fit, w0 = %.2f B", frac),
			AbsErr:   math.Abs(dFit - actualD),
			RelErr:   math.Abs(1 - dFit/actualD),
			ReconErr: reFit,
		}
		u.hasAux = true
		return u, nil
	})
	if err != nil {
		return nil, err
	}
	for _, u := range units {
		res.Rows = append(res.Rows, u.row)
		if u.hasAux {
			res.AuxRows = append(res.AuxRows, u.aux)
		}
	}
	return res, nil
}

// Render prints Table I.
func (r *Table1Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table I — time-skew estimation analysis (true D = 180 ps)")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Label,
			ps(row.AbsErr) + " ps",
			pct(row.RelErr),
			pct(row.ReconErr),
		})
	}
	writeTable(w, []string{"technique", "|D-hat - D|", "|1 - D-hat/D|", "recon err"}, rows)
	fmt.Fprintf(w, "reconstruction floor with exact D: %s (paper: 0.84%%)\n", pct(r.FloorErr))
	if len(r.AuxRows) > 0 {
		fmt.Fprintln(w, "\nauxiliary: the idealised coherent-fit adaptation of [14] on the same captures")
		rows = rows[:0]
		for _, row := range r.AuxRows {
			rows = append(rows, []string{row.Label, ps(row.AbsErr) + " ps", pct(row.RelErr), pct(row.ReconErr)})
		}
		writeTable(w, []string{"technique", "|D-hat - D|", "|1 - D-hat/D|", "recon err"}, rows)
		fmt.Fprintln(w, "The two adaptations bracket the paper's baseline rows; the LMS needs no stimulus knowledge at all.")
	}
}
