package core

import (
	"errors"
	"testing"

	"repro/internal/mask"
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

// TestOutcomeTally pins the one unit rule: an error is a rejection and an
// error with no margin, a 0 dB margin is a margin, and the tails fold as
// minimum margin and maximum skew.
func TestOutcomeTally(t *testing.T) {
	onMask := &Report{Pass: true, Mask: &mask.Report{WorstMarginDB: 0}, DHat: 3e-12}
	if o := OutcomeOf(onMask, nil); !o.Pass || !o.HasMargin || o.MarginDB != 0 || o.SkewPS != onMask.SkewErrPS() {
		t.Fatalf("0 dB outcome = %+v", o)
	}
	broken := OutcomeOf(nil, errors.New("unmeasurable"))
	if broken.Pass || broken.HasMargin || broken.Err != "unmeasurable" {
		t.Fatalf("error outcome = %+v", broken)
	}
	pass := func(margin, skew float64) Outcome {
		return Outcome{Pass: true, HasMargin: true, MarginDB: margin, SkewPS: skew}
	}
	cases := []struct {
		name string
		outs []Outcome
		want Tally
	}{
		{"empty lot", nil, Tally{}},
		{"0 dB margin counts", []Outcome{pass(0, 1)},
			Tally{Units: 1, HasMargin: true, WorstSkewPS: 1}},
		{"error is a rejection without margin", []Outcome{pass(3, 1), broken},
			Tally{Units: 2, Rejected: 1, Errors: 1, HasMargin: true, WorstMarginDB: 3, WorstSkewPS: 1}},
		{"all errors", []Outcome{broken, broken},
			Tally{Units: 2, Rejected: 2, Errors: 2}},
		{"no mask verdict", []Outcome{OutcomeOf(&Report{}, nil)},
			Tally{Units: 1, Rejected: 1}},
		{"worst margin is the minimum, worst skew the maximum", []Outcome{pass(2, 0.5), pass(-1, 4), pass(5, 2)},
			Tally{Units: 3, HasMargin: true, WorstMarginDB: -1, WorstSkewPS: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got Tally
			for _, o := range tc.outs {
				got.Add(o)
			}
			if got != tc.want {
				t.Errorf("tally = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestYieldCountsUnmeasurableUnits: a lot whose every unit fails core.New
// is a lot of rejected units, not a failed run.
func TestYieldCountsUnmeasurableUnits(t *testing.T) {
	base := fastScenario()
	base.Fc = -1
	const n = 3
	rep, err := RunYield(base, TypicalSpread(), n, 1)
	if err != nil {
		t.Fatalf("RunYield returned %v, want a report", err)
	}
	if rep.Errors != n || rep.Passes != 0 || rep.Yield != 0 || len(rep.Units) != n {
		t.Errorf("errors=%d passes=%d yield=%g units=%d, want %d/0/0/%d",
			rep.Errors, rep.Passes, rep.Yield, len(rep.Units), n, n)
	}
	if rep.WorstMarginDB != 0 {
		t.Errorf("worst margin %g dB with no mask verdict, want 0", rep.WorstMarginDB)
	}
}
