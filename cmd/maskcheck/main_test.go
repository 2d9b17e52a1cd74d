package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "unit.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestHealthyUnitJSON(t *testing.T) {
	cfg := writeConfig(t, `{"scale": 0.35, "seed": 3}`)
	var out bytes.Buffer
	code, err := run([]string{"-config", cfg, "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("healthy unit exit code %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), `"Pass": true`) {
		t.Errorf("JSON output missing pass flag:\n%s", out.String())
	}
}

func TestFaultyUnitExitCode(t *testing.T) {
	cfg := writeConfig(t, `{"scale": 0.35, "fault": "pa-compression"}`)
	var out bytes.Buffer
	code, err := run([]string{"-config", cfg}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 2 {
		t.Fatalf("faulty unit exit code %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Error("text output missing FAIL")
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := run([]string{"-config", "/nonexistent.json"}, &bytes.Buffer{}); err == nil {
		t.Error("missing config must fail")
	}
	bad := writeConfig(t, `{not json`)
	if _, err := run([]string{"-config", bad}, &bytes.Buffer{}); err == nil {
		t.Error("bad JSON must fail")
	}
	badMask := writeConfig(t, `{"mask": "nope"}`)
	if _, err := run([]string{"-config", badMask}, &bytes.Buffer{}); err == nil {
		t.Error("unknown mask must fail")
	}
	badFault := writeConfig(t, `{"fault": "nope"}`)
	if _, err := run([]string{"-config", badFault}, &bytes.Buffer{}); err == nil {
		t.Error("unknown fault must fail")
	}
	if _, err := run([]string{"-bogus"}, &bytes.Buffer{}); err == nil {
		t.Error("bad flag must fail")
	}
}

func TestCustomMaskAndEVM(t *testing.T) {
	cfg := writeConfig(t, `{
		"scale": 0.35,
		"evmTest": true,
		"customMask": {
			"name": "my-mask",
			"channelBwHz": 15e6,
			"refBwHz": 100e3,
			"points": [
				{"offsetHz": 7.5e6, "limitDBc": -24},
				{"offsetHz": 35e6, "limitDBc": -46}
			]
		}
	}`)
	var out bytes.Buffer
	code, err := run([]string{"-config", cfg}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "my-mask") || !strings.Contains(out.String(), "EVM") {
		t.Errorf("output missing custom mask / EVM:\n%s", out.String())
	}
}

func TestCustomMaskInvalid(t *testing.T) {
	cfg := writeConfig(t, `{"customMask": {"channelBwHz": 0, "refBwHz": 1, "points": []}}`)
	if _, err := run([]string{"-config", cfg}, &bytes.Buffer{}); err == nil {
		t.Error("invalid custom mask must fail")
	}
}

// TestScaleUsesSharedRule: "scale" shrinks the acquisition through
// core.ScaleAcquisition, so the PSD scales too and every size keeps its
// floor (at 0.1 the PSD grid is the 512-point floor, not 10% of 2048).
func TestScaleUsesSharedRule(t *testing.T) {
	cfg := writeConfig(t, `{"scale": 0.1}`)
	var out bytes.Buffer
	if _, err := run([]string{"-config", cfg, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep struct{ Compute struct{ PSDSamples int } }
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Compute.PSDSamples != 512 {
		t.Errorf("PSDSamples = %d at scale 0.1, want 512", rep.Compute.PSDSamples)
	}
}

// TestRefusesUnknownKeys: a misspelled key is an error (exit 1), not a
// healthy paper unit graded in place of the one the file describes.
func TestRefusesUnknownKeys(t *testing.T) {
	for _, body := range []string{
		`{"fualt": "pa-compression"}`,
		`{"scale": 0.35} {"fault": "pa-compression"}`,
	} {
		var out bytes.Buffer
		code, err := run([]string{"-config", writeConfig(t, body)}, &out)
		if err == nil || code != 1 {
			t.Errorf("%s: exit %d, err %v; want exit 1 and an error", body, code, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: a refused config printed a report:\n%s", body, out.String())
		}
	}
}

// TestRefusesOutOfRangeValues: a negative quantity or a scale above 1 is
// refused with exit 1 instead of being dropped for the default.
func TestRefusesOutOfRangeValues(t *testing.T) {
	for _, body := range []string{
		`{"scale": -3}`,
		`{"scale": 1.5}`,
		`{"rollOff": -0.5}`,
		`{"nominalDelayPs": -50}`,
		`{"symbolRateHz": -10e6}`,
		`{"carrierHz": -1e9}`,
		`{"captureRateHz": -90e6}`,
	} {
		var out bytes.Buffer
		code, err := run([]string{"-config", writeConfig(t, body)}, &out)
		if err == nil || code != 1 {
			t.Errorf("%s: exit %d, err %v; want exit 1 and an error", body, code, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: a refused config printed a report:\n%s", body, out.String())
		}
	}
}
