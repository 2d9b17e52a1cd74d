package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sig"
)

// nanBaseband returns NaN wherever t falls in the first frac of a
// microsecond, and a small tone elsewhere.
func nanBaseband(frac float64) sig.Envelope {
	tone := &sig.ComplexTone{Amp: 0.3, Freq: 5e6}
	return sig.EnvelopeFunc(func(t float64) complex128 {
		if math.Mod(math.Abs(t), 1e-6) < frac*1e-6 {
			return complex(math.NaN(), math.NaN())
		}
		return tone.At(t)
	})
}

// TestNonFiniteCaptureIsAnError: NaN samples survive the quantizer (every
// comparison with NaN is false), so without a check they run the whole
// pipeline and come out as a +Inf mask margin on a passing unit. A capture
// holding NaN must instead be an error naming the rate and the channel,
// and the unit a counted rejection.
func TestNonFiniteCaptureIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		bb   sig.Envelope
	}{
		{"all NaN", sig.EnvelopeFunc(func(float64) complex128 { return complex(math.NaN(), 0) })},
		{"1% NaN", nanBaseband(0.01)},
		{"0.1% NaN", nanBaseband(0.001)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := fastScenario()
			c.Baseband = tc.bb
			b, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := b.Run()
			if err == nil {
				t.Fatalf("NaN capture passed as a report: pass %v, worst margin %g dB",
					rep.Pass, rep.Mask.WorstMarginDB)
			}
			msg := err.Error()
			if !strings.Contains(msg, "rate-B") || !strings.Contains(msg, "channel") {
				t.Errorf("error %q does not name the rate and channel", msg)
			}
			o := OutcomeOf(rep, err)
			if o.Pass {
				t.Error("NaN unit counted as a pass")
			}
			var tally Tally
			tally.Add(o)
			if tally.Errors != 1 || tally.Rejected != 1 {
				t.Errorf("tally %+v, want one counted rejection", tally)
			}
		})
	}
}

// TestNonFiniteSideTestsAreErrors: the IRR and ADC side tests capture on
// their own, and reject a NaN capture the same way.
func TestNonFiniteSideTestsAreErrors(t *testing.T) {
	c := fastScenario()
	c.Tx.PA = nanPA{}
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.RunIRRTest(c.NominalD); err == nil || !strings.Contains(err.Error(), "IRR capture") {
		t.Errorf("IRR test on a NaN capture: err %v", err)
	}
	if _, err := b.RunADCCheck(); err == nil || !strings.Contains(err.Error(), "channel") {
		t.Errorf("ADC check on a NaN capture: err %v", err)
	}
}

// nanPA is a broken PA model whose output is NaN for every input.
type nanPA struct{}

func (nanPA) Apply(complex128) complex128 { return complex(math.NaN(), 0) }
func (nanPA) Describe() string            { return "nan" }

// TestInfiniteBasebandClipsToAFailingVerdict: +Inf is not NaN — the
// quantizer clips it to full scale, so the capture stays finite and the
// unit fails on its mask with a finite margin.
func TestInfiniteBasebandClipsToAFailingVerdict(t *testing.T) {
	c := fastScenario()
	c.Baseband = sig.EnvelopeFunc(func(float64) complex128 { return complex(math.Inf(1), 0) })
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatalf("clipped capture is measurable, got %v", err)
	}
	if rep.Pass {
		t.Error("a fully clipped unit must not pass")
	}
	if rep.Mask == nil || math.IsInf(rep.Mask.WorstMarginDB, 0) || math.IsNaN(rep.Mask.WorstMarginDB) {
		t.Errorf("mask verdict %+v, want a finite margin", rep.Mask)
	}
}
