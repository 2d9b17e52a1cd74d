package core

import (
	"testing"

	"repro/internal/obs"
)

func TestADCCheckHealthyPasses(t *testing.T) {
	c := fastScenario()
	c.ADCCheck = true
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	prev := obs.SetEnabled(true)
	obs.Reset()
	rep, err := b.Run()
	obs.SetEnabled(prev)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ADCChecked || rep.ADC == nil {
		t.Fatal("pre-check did not run")
	}
	// The pre-check is timed as a stage, like the four instrument stages.
	if hv := obs.Default().Snapshot().Histograms["core.stage.adccheck.seconds"]; hv.Count != 1 || hv.Sum <= 0 {
		t.Errorf("core.stage.adccheck.seconds: count %d sum %g", hv.Count, hv.Sum)
	}
	if !rep.Pass {
		t.Fatalf("healthy unit failed the instrument check:\n%s", rep.Summary())
	}
	// Healthy SNDR is jitter-limited near 34 dB per channel.
	for i, sndr := range rep.ADC.SNDRdB {
		if sndr < 30 || sndr > 45 {
			t.Errorf("channel %d SNDR %.1f dB outside the jitter-limited regime", i, sndr)
		}
	}
}

func TestADCINLFaultDetected(t *testing.T) {
	c := fastScenario()
	f, err := FaultByName("adc-inl")
	if err != nil {
		t.Fatal(err)
	}
	f.Apply(&c)
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("gross ADC INL escaped (SNDR %.1f/%.1f dB):\n%s",
			rep.ADC.SNDRdB[0], rep.ADC.SNDRdB[1], rep.Summary())
	}
	// The fault is on channel 1 only: channel 0 should remain healthy.
	if rep.ADC.SNDRdB[0] < 30 {
		t.Errorf("channel 0 dragged down: %.1f dB", rep.ADC.SNDRdB[0])
	}
	if rep.ADC.SNDRdB[1] >= 30 {
		t.Errorf("channel 1 SNDR %.1f dB did not drop below the floor", rep.ADC.SNDRdB[1])
	}
}
