package core

import (
	"bytes"
	"testing"

	"repro/internal/par"
	"repro/internal/testkit"
)

// TestRunReportWorkerInvariance pins the determinism contract of the
// in-unit fan-out end to end: acquisition draws its random streams
// serially and evaluates the signal over the pool, the fused estimate
// tables, the fidelity check and the decimation filter fan out, and every
// fold stays in serial order. So a full Report — delay estimate, fidelity,
// mask, EVM, IRR and ADC pre-check — is byte-identical at every pool width,
// for the healthy unit and every base-catalog fault (lo-phase-noise
// exercises the slowest acquire; adc-inl the float quantizer path).
func TestRunReportWorkerInvariance(t *testing.T) {
	type unit struct {
		name  string
		apply func(*Config)
	}
	units := []unit{{name: "healthy", apply: func(*Config) {}}}
	for _, f := range Catalog() {
		units = append(units, unit{name: f.Name, apply: f.Apply})
	}
	report := func(u unit, workers int) []byte {
		t.Helper()
		defer par.SetWorkers(par.SetWorkers(workers))
		c := fastScenario()
		u.apply(&c)
		b, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := b.Run()
		if err != nil {
			t.Fatal(err)
		}
		enc, err := testkit.MarshalCanonical(rep)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	for _, u := range units {
		ref := report(u, 1)
		for _, w := range []int{2, 8} {
			if got := report(u, w); !bytes.Equal(got, ref) {
				t.Errorf("%s: report at workers=%d differs from workers=1:\n%s\nvs\n%s",
					u.name, w, got, ref)
			}
		}
	}
}
