// Command maskcheck runs one complete BIST execution described by a JSON
// configuration file (or the built-in paper scenario) and prints the
// structured report. Exit status 0 = unit passes, 2 = unit fails, 1 =
// execution error; an unknown key, a negative quantity or a scale above 1
// in the configuration is an execution error.
//
// Example configuration:
//
//	{
//	  "constellation": "QPSK",
//	  "symbolRateHz": 10e6,
//	  "carrierHz": 1e9,
//	  "captureRateHz": 90e6,
//	  "nominalDelayPs": 180,
//	  "mask": "wideband-qpsk-15M",
//	  "fault": "pa-compression",
//	  "irrTest": true
//	}
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/mask"
)

// fileConfig is the JSON surface of the tool.
type fileConfig struct {
	Constellation  string  `json:"constellation"`
	SymbolRateHz   float64 `json:"symbolRateHz"`
	RollOff        float64 `json:"rollOff"`
	CarrierHz      float64 `json:"carrierHz"`
	CaptureRateHz  float64 `json:"captureRateHz"`
	NominalDelayPs float64 `json:"nominalDelayPs"`
	Mask           string  `json:"mask"`
	// CustomMask defines a mask inline instead of naming a built-in:
	// {"name": ..., "channelBwHz": ..., "refBwHz": ...,
	//  "points": [{"offsetHz": ..., "limitDBc": ...}, ...]}.
	CustomMask *customMask `json:"customMask"`
	Fault      string      `json:"fault"`
	IRRTest    bool        `json:"irrTest"`
	EVMTest    bool        `json:"evmTest"`
	Seed       int64       `json:"seed"`
	Scale      float64     `json:"scale"`
}

// parse decodes data strictly: an unknown key, trailing data, a negative
// rate, roll-off, carrier, delay or scale, or a scale above 1 is an error
// rather than a silently different unit. Zero (or an absent key) still means the
// paper scenario's value.
func (fc *fileConfig) parse(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(fc); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data")
	}
	for _, f := range []struct {
		key string
		v   float64
	}{
		{"symbolRateHz", fc.SymbolRateHz},
		{"rollOff", fc.RollOff},
		{"carrierHz", fc.CarrierHz},
		{"captureRateHz", fc.CaptureRateHz},
		{"nominalDelayPs", fc.NominalDelayPs},
		{"scale", fc.Scale},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s %g is negative", f.key, f.v)
		}
	}
	if fc.Scale > 1 {
		return fmt.Errorf("scale %g is above 1", fc.Scale)
	}
	return nil
}

// customMask mirrors mask.Mask with JSON-friendly field names.
type customMask struct {
	Name        string  `json:"name"`
	ChannelBwHz float64 `json:"channelBwHz"`
	RefBwHz     float64 `json:"refBwHz"`
	Points      []struct {
		OffsetHz float64 `json:"offsetHz"`
		LimitDBc float64 `json:"limitDBc"`
	} `json:"points"`
}

// toMask converts and validates a custom mask definition.
func (c *customMask) toMask() (*mask.Mask, error) {
	m := &mask.Mask{Name: c.Name, ChannelBW: c.ChannelBwHz, RefBW: c.RefBwHz}
	if m.Name == "" {
		m.Name = "custom"
	}
	for _, p := range c.Points {
		m.Points = append(m.Points, mask.Point{OffsetHz: p.OffsetHz, LimitDBc: p.LimitDBc})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "maskcheck:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("maskcheck", flag.ContinueOnError)
	path := fs.String("config", "", "JSON configuration file (default: paper scenario)")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}

	cfg := core.PaperScenario()
	// The report (text or -json) carries the simulator's reference values.
	cfg.GroundTruth = true
	var fc fileConfig
	if *path != "" {
		data, err := os.ReadFile(*path)
		if err != nil {
			return 1, err
		}
		if err := fc.parse(data); err != nil {
			return 1, fmt.Errorf("parsing %s: %w", *path, err)
		}
		if fc.Constellation != "" {
			cfg.Constellation = fc.Constellation
		}
		if fc.SymbolRateHz > 0 {
			cfg.SymbolRate = fc.SymbolRateHz
		}
		if fc.RollOff > 0 {
			cfg.RollOff = fc.RollOff
		}
		if fc.CarrierHz > 0 {
			cfg.Fc = fc.CarrierHz
			cfg.TI.DCDE.Max = 0.35 / fc.CarrierHz
			cfg.NominalD = 0
		}
		if fc.CaptureRateHz > 0 {
			cfg.B = fc.CaptureRateHz
		}
		if fc.NominalDelayPs > 0 {
			cfg.NominalD = fc.NominalDelayPs * 1e-12
		}
		if fc.Mask != "" {
			m, ok := mask.ByName(fc.Mask)
			if !ok {
				return 1, fmt.Errorf("unknown mask %q (have %v)", fc.Mask, mask.Names())
			}
			cfg.Mask = m
		}
		if fc.CustomMask != nil {
			m, err := fc.CustomMask.toMask()
			if err != nil {
				return 1, fmt.Errorf("custom mask: %w", err)
			}
			cfg.Mask = m
		}
		if fc.Seed != 0 {
			cfg.Seed = fc.Seed
		}
		cfg.IRRTest = cfg.IRRTest || fc.IRRTest
		cfg.EVMTest = cfg.EVMTest || fc.EVMTest
		if fc.Scale > 0 && fc.Scale < 1 {
			cfg = core.ScaleAcquisition(cfg, fc.Scale)
		}
		if fc.Fault != "" {
			f, err := core.FaultByName(fc.Fault)
			if err != nil {
				return 1, err
			}
			f.Apply(&cfg)
		}
	}

	b, err := core.New(cfg)
	if err != nil {
		return 1, err
	}
	rep, err := b.Run()
	if err != nil {
		return 1, err
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return 1, err
		}
	} else {
		fmt.Fprint(out, rep.Summary())
	}
	if !rep.Pass {
		return 2, nil
	}
	return 0, nil
}
