// Spectralmask: the paper's motivating application end-to-end. A healthy
// SDR transmitter and a set of faulty units go through the complete BIST
// flow — nonuniform capture, LMS delay identification, Kohlenberg
// reconstruction, Welch PSD, spectral-mask verdict plus modulator health —
// and the verdicts are compared against what a golden ATE instrument would
// say.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	base := core.PaperScenario()
	// Keep runtime friendly for a demo.
	base.CaptureLen = 1400
	base.NTimes = 150
	base.PSDLen = 1024
	base.SegLen = 256
	base.GroundTruth = true // the summaries print the reconstruction error

	runUnit := func(label string, mutate func(*core.Config)) error {
		cfg := base
		if mutate != nil {
			mutate(&cfg)
		}
		b, err := core.New(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		rep, err := b.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		fmt.Fprintf(w, "--- unit: %s ---\n%s\n", label, rep.Summary())
		return nil
	}

	if err := runUnit("healthy", nil); err != nil {
		return err
	}
	for _, f := range core.Catalog() {
		f := f
		expect := "must pass (benign)"
		if f.ShouldFail {
			expect = "must fail"
		}
		fmt.Fprintf(w, ">>> injecting %s — %s (%s)\n", f.Name, f.Description, expect)
		if err := runUnit(f.Name, f.Apply); err != nil {
			return err
		}
	}
	return nil
}
