package core

import (
	"testing"

	"repro/internal/par"
)

func TestYieldInSpecPopulation(t *testing.T) {
	base := fastScenario()
	base.IRRTest = true
	rep, err := RunYield(base, TypicalSpread(), 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Units) != 8 || rep.Passes != 8 || rep.Yield != 1 {
		t.Fatalf("in-spec yield %.2f (%d/%d)", rep.Yield, rep.Passes, len(rep.Units))
	}
	if rep.WorstSkewPS > 20 {
		t.Errorf("worst skew %.2f ps across the lot", rep.WorstSkewPS)
	}
	if rep.WorstMarginDB < 0 {
		t.Errorf("worst mask margin %.2f dB", rep.WorstMarginDB)
	}
}

func TestYieldDetectsOutOfSpecTail(t *testing.T) {
	// Blow up the IQ spread so a good fraction of units violate the IRR
	// limit: yield must drop below 1.
	base := fastScenario()
	base.IRRTest = true
	spread := TypicalSpread()
	// ~30 dB IRR corresponds to ~2.3 deg of quadrature error: a 2.5 deg
	// sigma puts a substantial fraction of units on each side of the limit.
	spread.IQPhaseSigmaDeg = 2.5
	spread.IQGainSigmaDB = 0.4
	rep, err := RunYield(base, spread, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Yield >= 1 {
		t.Fatalf("out-of-spec population yielded 100%% (worst margin %.1f dB)", rep.WorstMarginDB)
	}
	if rep.Passes == 0 {
		t.Error("population should not be entirely dead either")
	}
}

func TestYieldValidation(t *testing.T) {
	if _, err := RunYield(fastScenario(), TypicalSpread(), 0, 1); err == nil {
		t.Error("zero units must fail")
	}
}

func TestYieldDeterministic(t *testing.T) {
	base := fastScenario()
	a, err := RunYield(base, TypicalSpread(), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunYield(base, TypicalSpread(), 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Units {
		if a.Units[i].SkewPS != b.Units[i].SkewPS {
			t.Fatal("yield run not reproducible")
		}
	}
}

func TestYieldDeterministicAcrossWorkerCounts(t *testing.T) {
	// Each unit derives its RNG from the lot seed + its own index, so the
	// report must be bit-identical no matter how the units are scheduled.
	base := fastScenario()
	run := func(workers, n int) *YieldReport {
		t.Helper()
		prev := par.SetWorkers(workers)
		defer par.SetWorkers(prev)
		rep, err := RunYield(base, TypicalSpread(), n, 7)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := run(1, 4)
	for _, w := range []int{2, 5} {
		rep := run(w, 4)
		for i := range serial.Units {
			if rep.Units[i] != serial.Units[i] {
				t.Fatalf("workers=%d: unit %d differs: %+v vs %+v",
					w, i, rep.Units[i], serial.Units[i])
			}
		}
		if rep.Yield != serial.Yield || rep.WorstSkewPS != serial.WorstSkewPS {
			t.Fatalf("workers=%d: aggregate differs", w)
		}
	}
	// Lot-resize stability: unit u's draw depends only on (seed, u), so a
	// smaller lot is a strict prefix of a bigger one.
	small := run(3, 2)
	for i := range small.Units {
		if small.Units[i] != serial.Units[i] {
			t.Fatalf("prefix stability broken at unit %d", i)
		}
	}
}

// TestYieldWithoutMaskHasNoMarginSentinel: with no mask configured no unit
// has a verdict, so the lot's worst margin stays at its 0 "none" value
// instead of leaking the search's start value.
func TestYieldWithoutMaskHasNoMarginSentinel(t *testing.T) {
	base := fastScenario()
	base.Mask = nil
	rep, err := RunYield(base, TypicalSpread(), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorstMarginDB != 0 {
		t.Fatalf("worst margin %g dB with no mask verdict, want 0", rep.WorstMarginDB)
	}
	for _, u := range rep.Units {
		if u.WorstMarginDB != 0 {
			t.Fatalf("unit %d margin %g dB with no mask verdict", u.Unit, u.WorstMarginDB)
		}
	}
}
