// Package campaign turns the paper's "flexible multistandard" claim into a
// measured number: a declarative stimulus matrix (constellation x PRBS
// polynomial/seed x burst length x power backoff x mask standard) is
// crossed with the extended fault library into a grid of (stimulus, fault,
// unit) cells, each cell runs the full BIST, and the resulting detection
// matrix reports which faults each stimulus actually catches — per-fault
// detection probability, escape rates at a yield threshold, and a
// per-stimulus coverage score. It is the software mirror of a
// register-programmable BIST pattern generator (seed, payload mode and
// word count all "register"-driven), and the workload generator a campaign
// server shards over many processes: every cell's randomness derives from
// the grid seed and the cell's content via SplitMix64, so the matrix is
// bit-reproducible at any worker count and invariant under grid row order.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mask"
	"repro/internal/modem"
	"repro/internal/sig"
	"repro/internal/testkit"
)

// StimulusSpec declares one programmable test stimulus. The zero value is
// invalid; every field participates in canonical serialization, so two
// specs are the same stimulus exactly when their canonical JSON matches.
type StimulusSpec struct {
	// Name labels the stimulus in the detection matrix; must be unique
	// within a grid.
	Name string
	// Constellation names the payload alphabet ("BPSK", "QPSK", "8PSK",
	// "16QAM", "64QAM").
	Constellation string
	// PRBSOrder selects the payload generator polynomial (ITU-T orders 7,
	// 9, 15, 23, 31).
	PRBSOrder uint
	// PRBSSeed is the LFSR start state (0 selects the all-ones register).
	PRBSSeed uint32
	// BurstLen is the cyclic burst length in symbols.
	BurstLen int
	// BackoffDB backs the mean baseband drive off from the nominal
	// operating point in dB; negative values overdrive.
	BackoffDB float64
	// Mask names the emission-mask standard the stimulus is checked
	// against (see mask.Names).
	Mask string
}

// nominalPower is the healthy operating drive (mean |envelope|^2) that
// BackoffDB is referenced to — the paper scenario's 0.5.
const nominalPower = 0.5

// Validate checks the spec against the supported alphabets, polynomials
// and masks without building anything.
func (s StimulusSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: stimulus needs a name")
	}
	if _, err := modem.ByName(s.Constellation); err != nil {
		return fmt.Errorf("campaign: stimulus %s: %w", s.Name, err)
	}
	if _, err := sig.NewPRBS(s.PRBSOrder, s.PRBSSeed); err != nil {
		return fmt.Errorf("campaign: stimulus %s: %w", s.Name, err)
	}
	if s.BurstLen < 16 || s.BurstLen > 1<<16 {
		return fmt.Errorf("campaign: stimulus %s: burst length %d outside [16, 65536]", s.Name, s.BurstLen)
	}
	if math.IsNaN(s.BackoffDB) || math.IsInf(s.BackoffDB, 0) {
		return fmt.Errorf("campaign: stimulus %s: backoff must be finite", s.Name)
	}
	if s.BackoffDB < -6 || s.BackoffDB > 20 {
		return fmt.Errorf("campaign: stimulus %s: backoff %g dB outside [-6, 20]", s.Name, s.BackoffDB)
	}
	if _, ok := mask.ByName(s.Mask); !ok {
		return fmt.Errorf("campaign: stimulus %s: unknown mask %q", s.Name, s.Mask)
	}
	return nil
}

// Symbols expands the payload: PRBS bits mapped MSB-first onto the
// constellation, exactly BurstLen symbols.
func (s StimulusSpec) Symbols() ([]complex128, error) {
	cst, err := modem.ByName(s.Constellation)
	if err != nil {
		return nil, err
	}
	prbs, err := sig.NewPRBS(s.PRBSOrder, s.PRBSSeed)
	if err != nil {
		return nil, err
	}
	return cst.Map(prbs.Bits(s.BurstLen * cst.BitsPerSymbol()))
}

// Configure overlays the stimulus onto a BIST configuration: payload
// stream, drive level and mask standard. Everything else — the DUT
// impairments a fault injected, the sub-tests it enabled, the acquisition
// geometry — is left alone, which is why a campaign applies the fault
// first and the stimulus last: the stimulus controls what the DUT is
// driven with, the fault controls what the DUT is.
func (s StimulusSpec) Configure(base core.Config) (core.Config, error) {
	if err := s.Validate(); err != nil {
		return core.Config{}, err
	}
	syms, err := s.Symbols()
	if err != nil {
		return core.Config{}, err
	}
	m, _ := mask.ByName(s.Mask)
	cfg := base
	cfg.Constellation = s.Constellation
	cfg.Symbols = syms
	cfg.BasebandPower = nominalPower * math.Pow(10, -s.BackoffDB/10)
	cfg.Mask = m
	return cfg, nil
}

// MarshalCanonical encodes the spec as canonical JSON (testkit encoder:
// declaration-order fields, shortest round-trip floats), the byte form the
// round-trip fuzz target pins: parse -> canonicalize -> re-parse is
// byte-stable.
func (s StimulusSpec) MarshalCanonical() ([]byte, error) {
	return testkit.MarshalCanonical(s)
}

// ParseSpec decodes and validates one stimulus spec. Unknown fields are
// rejected — a typo in a campaign file should fail loudly, not silently
// run a default.
func ParseSpec(data []byte) (StimulusSpec, error) {
	var s StimulusSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return StimulusSpec{}, fmt.Errorf("campaign: parse stimulus: %w", err)
	}
	if dec.More() {
		return StimulusSpec{}, fmt.Errorf("campaign: parse stimulus: trailing data")
	}
	if err := s.Validate(); err != nil {
		return StimulusSpec{}, err
	}
	return s, nil
}
