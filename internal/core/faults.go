package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/adc"
	"repro/internal/rf"
)

// Fault is one injectable manufacturing defect for escape analysis. Apply
// mutates a healthy configuration into the faulty one.
type Fault struct {
	// Name identifies the fault in reports.
	Name string
	// Description explains the physical defect and its expected signature.
	Description string
	// ShouldFail indicates whether a correct BIST must reject the unit.
	ShouldFail bool
	// Apply injects the fault.
	Apply func(c *Config)
}

// BuildCatalog returns the built-in fault library. Faults marked
// ShouldFail are specification violations; the remainder are benign process
// variations the BIST must tolerate (no false alarms) — notably the DCDE
// bias, which is exactly the unknown the LMS technique exists to absorb.
//
// Every impairment model is constructed up front, so a bad parameter
// surfaces as a returned error instead of a panic inside an Apply closure
// deep in a campaign run; the closures only assign the prebuilt (read-only)
// models. The library is built once per process: each call returns a fresh
// slice over the same models, so every unit, cell and plan shares them —
// among them the lo-phase-noise process and its Φ table.
func BuildCatalog() ([]Fault, error) {
	fs, err := baseCatalog()
	return slices.Clone(fs), err
}

var baseCatalog = sync.OnceValues(buildCatalog)

func buildCatalog() ([]Fault, error) {
	compressedPA, err := rf.NewRappPA(1, 0.55, 2)
	if err != nil {
		return nil, fmt.Errorf("core: fault catalog: pa-compression: %w", err)
	}
	inlProfile, err := adc.NewRandomNL(10, 1.0, 91)
	if err != nil {
		return nil, fmt.Errorf("core: fault catalog: adc-inl: %w", err)
	}
	heavyPN, err := rf.NewPhaseNoise(
		[]float64{1e4, 1e5, 1e6, 1e7},
		[]float64{-48, -55, -75, -100}, 256, 17)
	if err != nil {
		return nil, fmt.Errorf("core: fault catalog: lo-phase-noise: %w", err)
	}
	return []Fault{
		{
			Name:        "pa-compression",
			Description: "PA driven deep into compression: spectral regrowth violates the mask shoulders",
			ShouldFail:  true,
			Apply: func(c *Config) {
				// Saturation at ~the signal RMS: heavy clipping.
				c.Tx.PA = compressedPA
				c.BasebandPower = 1.0
			},
		},
		{
			Name:        "iq-imbalance",
			Description: "severe quadrature error (2 dB / 12 deg): image rejection collapses",
			ShouldFail:  true,
			Apply: func(c *Config) {
				c.Tx.IQ = rf.FromImbalanceDB(2, 12, 0)
				c.IRRTest = true
			},
		},
		{
			Name:        "lo-leakage",
			Description: "carrier feedthrough at -18 dBc: LO leakage limit violated",
			ShouldFail:  true,
			Apply: func(c *Config) {
				c.Tx.IQ = rf.FromImbalanceDB(0, 0, complex(0.09, 0))
				c.IRRTest = true
			},
		},
		{
			Name:        "dead-gain",
			Description: "PA gain collapsed by 20 dB: output power floor violated",
			ShouldFail:  true,
			Apply: func(c *Config) {
				c.Tx.PA = &rf.LinearPA{Gain: 0.1}
				c.MinChannelPower = 0.05
			},
		},
		{
			Name:        "adc-inl",
			Description: "receiver ADC channel 1 with gross ladder mismatch (1 LSB rms DNL random walk): instrument pre-check fails",
			ShouldFail:  true,
			Apply: func(c *Config) {
				c.TI.Ch1.NL = inlProfile
				c.ADCCheck = true
			},
		},
		{
			Name:        "lo-phase-noise",
			Description: "degraded LO with heavy close-in phase noise: modulation quality (EVM) collapses",
			ShouldFail:  true,
			Apply: func(c *Config) {
				c.Tx.PhaseNoise = heavyPN
				c.EVMTest = true
			},
		},
		{
			Name:        "channel-mismatch",
			Description: "ADC channel gain/offset mismatch (0.7 dB, 30 mV): benign once background calibration runs",
			ShouldFail:  false,
			Apply: func(c *Config) {
				c.TI.Ch0.Gain = 1.04
				c.TI.Ch0.Offset = 0.03
				c.TI.Ch1.Gain = 0.96
				c.TI.Ch1.Offset = -0.03
				c.CalibrateMismatch = true
			},
		},
		{
			Name:        "dcde-bias",
			Description: "DCDE static bias of +35 ps: benign, absorbed by LMS delay identification",
			ShouldFail:  false,
			Apply: func(c *Config) {
				c.TI.DCDE.Bias = 35e-12
			},
		},
		{
			Name:        "mild-iq",
			Description: "mild quadrature error (0.2 dB / 1 deg): within spec, must pass",
			ShouldFail:  false,
			Apply: func(c *Config) {
				c.Tx.IQ = rf.FromImbalanceDB(0.2, 1, 0)
				c.IRRTest = true
			},
		},
	}, nil
}

// Catalog returns the built-in fault library, panicking on construction
// errors. The library is built from constant parameters, so a failure here
// is a programming error, not an input error; campaign code that wants to
// surface the error instead calls BuildCatalog directly.
func Catalog() []Fault {
	fs, err := BuildCatalog()
	if err != nil {
		panic(fmt.Sprintf("core: fault catalog: %v", err))
	}
	return fs
}

// BuildExtendedCatalog returns the base library plus the campaign-grade
// fault models: defects whose visibility depends on the stimulus driving
// the transmitter, which is what a stimulus-coverage matrix exists to
// measure. They live outside Catalog() so the classic single-stimulus
// experiments (RunMaskBIST and the spectral-mask example) keep their
// committed vectors. Like BuildCatalog, it builds once per process and
// returns a fresh slice on each call.
func BuildExtendedCatalog() ([]Fault, error) {
	fs, err := extendedCatalog()
	return slices.Clone(fs), err
}

var extendedCatalog = sync.OnceValues(buildExtendedCatalog)

func buildExtendedCatalog() ([]Fault, error) {
	base, err := BuildCatalog()
	if err != nil {
		return nil, err
	}
	// AM-AM + AM-PM with memory: a two-tap memory polynomial whose delayed
	// third-order term makes the spectral regrowth asymmetric. Third-order
	// products scale with the drive cubed, so a backed-off stimulus can
	// legitimately miss this fault — the canonical coverage escape.
	memPA, err := rf.NewMemoryPolyPA([][3]complex128{
		{1, complex(-0.32, 0.14), 0},
		{0, complex(0.22, -0.15), 0},
	}, 22e-9)
	if err != nil {
		return nil, fmt.Errorf("core: fault catalog: pa-memory: %w", err)
	}
	// Reference-spur comb of a broken PLL: signal images at +-k*12 MHz.
	// Phase spurs are multiplicative, so the images track the signal level
	// (dBc-constant) and land where the wideband masks have teeth.
	spurs, err := rf.NewSpurComb(12e6, []float64{-15, -19, -24}, 33)
	if err != nil {
		return nil, fmt.Errorf("core: fault catalog: lo-spur-comb: %w", err)
	}
	return append(base,
		Fault{
			Name:        "dcde-stuck",
			Description: "DCDE control word stuck near code 0 (8 ps): channels sample almost coincidentally, reconstruction conditioning collapses",
			ShouldFail:  true,
			Apply: func(c *Config) {
				c.TI.DCDE.Stuck = true
				c.TI.DCDE.StuckAt = 8e-12
			},
		},
		Fault{
			Name:        "pa-memory",
			Description: "PA memory effects (two-tap memory polynomial, tau = 22 ns): asymmetric spectral regrowth at nominal drive",
			ShouldFail:  true,
			Apply: func(c *Config) {
				c.Tx.PA = memPA
			},
		},
		Fault{
			Name:        "lo-spur-comb",
			Description: "LO reference-spur comb (-15 dBc @ 12 MHz + harmonics): signal images violate the mask shoulders",
			ShouldFail:  true,
			Apply: func(c *Config) {
				c.Tx.Spurs = spurs
			},
		},
	), nil
}

// ExtendedCatalog is the panicking wrapper around BuildExtendedCatalog,
// mirroring Catalog.
func ExtendedCatalog() []Fault {
	fs, err := BuildExtendedCatalog()
	if err != nil {
		panic(fmt.Sprintf("core: fault catalog: %v", err))
	}
	return fs
}

// FaultByName looks up a catalogue entry (base or extended).
func FaultByName(name string) (Fault, error) {
	for _, f := range ExtendedCatalog() {
		if f.Name == name {
			return f, nil
		}
	}
	return Fault{}, fmt.Errorf("core: unknown fault %q", name)
}
