// Multistandard: the flexibility argument of Section II-B. The same BIST —
// identical hardware, identical per-channel rate law (B twice) — tests four
// different waveforms at four carriers from 450 MHz to 3.1 GHz, while the
// uniform bandpass sampling (PBS) baseline needs a per-configuration
// alias-free rate hunt whose clock precision budget shrinks to kilohertz.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/pnbs"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	for _, cfg := range core.MultistandardScenarios() {
		// Demo-friendly sizes.
		cfg.CaptureLen = 1100
		cfg.NTimes = 400
		cfg.PSDLen = 768
		cfg.SegLen = 256
		cfg.GroundTruth = true // prints the reconstruction error

		b, err := core.New(cfg)
		if err != nil {
			return err
		}
		band := b.Band()
		fmt.Fprintf(w, "=== %s %.3g Msym/s @ %.3g GHz (B = %.0f MHz) ===\n",
			cfg.Constellation, cfg.SymbolRate/1e6, cfg.Fc/1e9, cfg.B/1e6)

		// What PBS would need for the same observation.
		win, err := pnbs.MinAliasFreeRate(band)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  PBS: best alias-free rate %.4f MHz, clock budget +-%.1f kHz\n",
			win.Lo/1e6, pnbs.RequiredClockPrecision(win)/1e3)
		fmt.Fprintf(w, "  PNBS: two channels at %.0f MS/s each (theoretical minimum), any band position\n",
			cfg.B/1e6)

		rep, err := b.Run()
		if err != nil {
			return err
		}
		maskState := "skipped"
		if rep.Mask != nil {
			maskState = fmt.Sprintf("%v (worst margin %+.1f dB)", rep.Mask.Pass, rep.Mask.WorstMarginDB)
		}
		fmt.Fprintf(w, "  delay: programmed %.1f ps, estimated %.2f ps (err %.2f ps, %d iters)\n",
			rep.DNominal*1e12, rep.DHat*1e12, rep.SkewErrPS(), rep.LMS.Iterations)
		fmt.Fprintf(w, "  reconstruction error %.2f %%, mask %s\n\n",
			100*rep.ReconRelErr, maskState)
	}
	return nil
}
