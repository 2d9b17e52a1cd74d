package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// MaskBISTRow is one unit (healthy or faulty) through the full BIST.
type MaskBISTRow struct {
	Unit       string
	ShouldFail bool
	Report     *core.Report
	// Correct indicates the verdict matched expectation (no escape, no
	// false alarm).
	Correct bool
}

// MaskBISTResult is the fault-detection matrix of the end-to-end BIST
// (experiment E8): a healthy unit plus every catalogue fault.
type MaskBISTResult struct {
	Rows    []MaskBISTRow
	Escapes int
	Alarms  int
}

// RunMaskBIST executes the complete flow for the healthy unit and each
// fault. scale trades accuracy for speed: 1.0 is the full paper-size
// configuration; smaller values shrink captures/PSDs proportionally (used
// by unit tests and quick benchmarks).
func RunMaskBIST(scale float64) (*MaskBISTResult, error) {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	res := &MaskBISTResult{}
	run := func(unit string, shouldFail bool, mutate func(*core.Config)) error {
		cfg := core.ScaleAcquisition(core.PaperScenario(), scale)
		if mutate != nil {
			mutate(&cfg)
		}
		b, err := core.New(cfg)
		if err != nil {
			return fmt.Errorf("experiments: unit %s: %w", unit, err)
		}
		rep, err := b.Run()
		if err != nil {
			return fmt.Errorf("experiments: unit %s: %w", unit, err)
		}
		res.Rows = append(res.Rows, MaskBISTRow{
			Unit:       unit,
			ShouldFail: shouldFail,
			Report:     rep,
			Correct:    rep.Pass != shouldFail,
		})
		if shouldFail && rep.Pass {
			res.Escapes++
		}
		if !shouldFail && !rep.Pass {
			res.Alarms++
		}
		return nil
	}
	if err := run("healthy", false, nil); err != nil {
		return nil, err
	}
	for _, f := range core.Catalog() {
		f := f
		if err := run(f.Name, f.ShouldFail, f.Apply); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Render prints the detection matrix.
func (r *MaskBISTResult) Render(w io.Writer) {
	fmt.Fprintln(w, "End-to-end spectral-mask BIST — fault detection matrix")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		verdict := "PASS"
		if !row.Report.Pass {
			verdict = "FAIL"
		}
		expect := "pass"
		if row.ShouldFail {
			expect = "fail"
		}
		ok := "ok"
		if !row.Correct {
			ok = "WRONG"
		}
		worst := ""
		if row.Report.Mask != nil {
			worst = fmt.Sprintf("%+.1f dB", row.Report.Mask.WorstMarginDB)
		}
		irr := ""
		if row.Report.IRRTested {
			irr = fmt.Sprintf("%.1f dB", row.Report.IRRMeasuredDB)
		}
		rows = append(rows, []string{
			row.Unit, expect, verdict, ok,
			fmt.Sprintf("%.3f ps", row.Report.SkewErrPS()),
			worst, irr,
		})
	}
	writeTable(w, []string{"unit", "expected", "verdict", "scored", "skew err", "mask margin", "IRR"}, rows)
	fmt.Fprintf(w, "escapes: %d, false alarms: %d\n", r.Escapes, r.Alarms)
}
