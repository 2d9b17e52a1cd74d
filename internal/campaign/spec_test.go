package campaign

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestStimulusSpecRoundTrip: the canonical form is a fixed point of
// parse -> canonicalize, for every committed stimulus.
func TestStimulusSpecRoundTrip(t *testing.T) {
	for _, s := range DefaultGrid().Stimuli {
		b1, err := s.MarshalCanonical()
		if err != nil {
			t.Fatalf("%s: marshal: %v", s.Name, err)
		}
		parsed, err := ParseSpec(b1)
		if err != nil {
			t.Fatalf("%s: parse canonical: %v", s.Name, err)
		}
		if !reflect.DeepEqual(parsed, s) {
			t.Errorf("%s: round trip changed the spec: %+v != %+v", s.Name, parsed, s)
		}
		b2, err := parsed.MarshalCanonical()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", s.Name, err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: canonical form not byte-stable:\n%s\n%s", s.Name, b1, b2)
		}
	}
}

func validSpec() StimulusSpec {
	return StimulusSpec{
		Name:          "probe",
		Constellation: "QPSK",
		PRBSOrder:     15,
		PRBSSeed:      1,
		BurstLen:      64,
		BackoffDB:     0,
		Mask:          "wideband-qpsk-15M",
	}
}

func TestStimulusSpecValidate(t *testing.T) {
	cases := []struct {
		label  string
		mutate func(*StimulusSpec)
		bad    bool
	}{
		{"valid", func(s *StimulusSpec) {}, false},
		{"empty name", func(s *StimulusSpec) { s.Name = "" }, true},
		{"unknown constellation", func(s *StimulusSpec) { s.Constellation = "128APSK" }, true},
		{"unknown prbs order", func(s *StimulusSpec) { s.PRBSOrder = 11 }, true},
		{"burst too short", func(s *StimulusSpec) { s.BurstLen = 8 }, true},
		{"burst too long", func(s *StimulusSpec) { s.BurstLen = 1 << 17 }, true},
		{"backoff nan", func(s *StimulusSpec) { s.BackoffDB = math.NaN() }, true},
		{"backoff too hot", func(s *StimulusSpec) { s.BackoffDB = -9 }, true},
		{"backoff too cold", func(s *StimulusSpec) { s.BackoffDB = 30 }, true},
		{"unknown mask", func(s *StimulusSpec) { s.Mask = "fcc-part-15" }, true},
		{"zero prbs seed ok", func(s *StimulusSpec) { s.PRBSSeed = 0 }, false},
		{"overdrive edge ok", func(s *StimulusSpec) { s.BackoffDB = -6 }, false},
	}
	for _, c := range cases {
		s := validSpec()
		c.mutate(&s)
		err := s.Validate()
		if c.bad && err == nil {
			t.Errorf("%s: expected validation error", c.label)
		}
		if !c.bad && err != nil {
			t.Errorf("%s: unexpected error: %v", c.label, err)
		}
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for label, in := range map[string]string{
		"unknown field": `{"Name":"x","Constellation":"QPSK","PRBSOrder":15,"PRBSSeed":1,"BurstLen":64,"BackoffDB":0,"Mask":"wideband-qpsk-15M","Turbo":true}`,
		"trailing data": `{"Name":"x","Constellation":"QPSK","PRBSOrder":15,"PRBSSeed":1,"BurstLen":64,"BackoffDB":0,"Mask":"wideband-qpsk-15M"} {}`,
		"not an object": `[1,2,3]`,
		"invalid spec":  `{"Name":"x","Constellation":"QPSK","PRBSOrder":15,"PRBSSeed":1,"BurstLen":1,"BackoffDB":0,"Mask":"wideband-qpsk-15M"}`,
	} {
		if _, err := ParseSpec([]byte(in)); err == nil {
			t.Errorf("%s: expected parse error", label)
		}
	}
}

// TestConfigure: the stimulus overlays payload, drive and mask — and only
// those — onto the base configuration.
func TestConfigure(t *testing.T) {
	s := validSpec()
	s.BackoffDB = 3
	base := core.PaperScenario()
	base.CaptureLen = 1234
	cfg, err := s.Configure(base)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.CaptureLen != 1234 {
		t.Errorf("Configure touched the acquisition geometry: CaptureLen %d", cfg.CaptureLen)
	}
	if cfg.Constellation != "QPSK" || len(cfg.Symbols) != 64 {
		t.Errorf("payload not applied: %s/%d", cfg.Constellation, len(cfg.Symbols))
	}
	want := 0.5 * math.Pow(10, -0.3)
	if math.Abs(cfg.BasebandPower-want) > 1e-12 {
		t.Errorf("backoff 3 dB: power %g, want %g", cfg.BasebandPower, want)
	}
	if cfg.Mask == nil {
		t.Error("mask not applied")
	}
	// The overlay wins over whatever a fault set before it — this ordering
	// is what lets a backed-off stimulus miss a drive-dependent fault.
	base.BasebandPower = 1.0
	cfg, err = s.Configure(base)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cfg.BasebandPower-want) > 1e-12 {
		t.Errorf("stimulus did not override the fault's drive: %g", cfg.BasebandPower)
	}
}

// TestSymbolsDeterministic: the payload depends only on the spec.
func TestSymbolsDeterministic(t *testing.T) {
	s := validSpec()
	a, err := s.Symbols()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Symbols()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same spec produced different payloads")
	}
	s2 := s
	s2.PRBSSeed = 2
	c, err := s2.Symbols()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different PRBS seeds produced identical payloads")
	}
}

func TestValidateErrorNamesStimulus(t *testing.T) {
	s := validSpec()
	s.Mask = "bogus"
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), "probe") {
		t.Errorf("error should name the stimulus: %v", err)
	}
}
