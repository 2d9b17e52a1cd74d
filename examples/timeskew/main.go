// Timeskew: demonstrate the paper's LMS-based delay identification
// (Algorithm 1). The transmitter output is captured at two rates (B and
// B/2) by the BP-TIADC whose true inter-channel delay is unknown (DCDE bias
// + 10-bit quantization + 3 ps clock jitter); the LMS finds it blindly —
// no known test signal required.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs/trace"
	"repro/internal/skew"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Capture the paper's transmitter (10 MHz QPSK at 1 GHz) nonuniformly
	// at both rates and build the cost function over the captures.
	ce, _, actualD, err := experiments.DefaultPaperSetup().Acquire(300, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "true (hidden) delay: %.3f ps\n", actualD*1e12)
	fmt.Fprintf(w, "search interval: ]0, %.0f ps[ (m from Section IV-A)\n", ce.M()*1e12)

	// Run Algorithm 1 from wildly wrong starting guesses.
	for _, d0 := range []float64{50e-12, 100e-12, 350e-12, 400e-12} {
		res, err := skew.EstimateLMS(trace.Root, ce.Cost, d0, ce.M())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "D0 = %3.0f ps -> D-hat = %.3f ps  (err %.3f ps, %2d iterations, %d cost evals)\n",
			d0*1e12, res.DHat*1e12, (res.DHat-actualD)*1e12, res.Iterations, res.CostEvals)
		fmt.Fprint(w, "  cost trace:")
		for i, c := range res.CostHistory {
			if i > 8 {
				fmt.Fprint(w, " ...")
				break
			}
			fmt.Fprintf(w, " %.3g", c)
		}
		fmt.Fprintln(w)
	}
	return nil
}
