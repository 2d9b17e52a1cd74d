package core

import "testing"

func TestChannelMismatchAbsorbedByCalibration(t *testing.T) {
	c := fastScenario()
	c.GroundTruth = true
	f, err := FaultByName("channel-mismatch")
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
	if !rep.Pass {
		t.Fatalf("calibrated channel mismatch caused a false alarm:\n%s", rep.Summary())
	}
	if rep.ReconRelErr <= 0 || rep.ReconRelErr > 0.05 {
		t.Errorf("reconstruction error %.3g with calibration, want in (0, 0.05]", rep.ReconRelErr)
	}
}

func TestChannelMismatchHurtsWithoutCalibration(t *testing.T) {
	// Same mismatch, calibration disabled: the reconstruction degrades
	// measurably (gain mismatch acts like multiplicative noise on half the
	// sample set).
	mk := func(calibrate bool) float64 {
		c := fastScenario()
		f, _ := FaultByName("channel-mismatch")
		f.Apply(&c)
		c.CalibrateMismatch = calibrate
		c.GroundTruth = true
		b, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := b.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.ReconRelErr <= 0 {
			t.Fatalf("calibrate=%v: reconstruction error %g not computed", calibrate, rep.ReconRelErr)
		}
		return rep.ReconRelErr
	}
	with := mk(true)
	without := mk(false)
	if without < 1.5*with {
		t.Errorf("calibration gain not visible: %.3g with vs %.3g without", with, without)
	}
}

func TestCalibrationHarmlessOnHealthyUnit(t *testing.T) {
	c := fastScenario()
	c.CalibrateMismatch = true
	b, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("calibration broke a healthy unit:\n%s", rep.Summary())
	}
}
