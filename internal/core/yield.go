package core

import (
	"fmt"
	"math/rand"

	"repro/internal/dsp"
	"repro/internal/par"
	"repro/internal/rf"
)

// ProcessSpread describes lot-level manufacturing variation: each simulated
// unit draws its impairments from these (Gaussian) distributions. Zero
// values disable the corresponding variation.
type ProcessSpread struct {
	// IQGainSigmaDB is the sigma of the IQ gain imbalance in dB.
	IQGainSigmaDB float64
	// IQPhaseSigmaDeg is the sigma of the quadrature error in degrees.
	IQPhaseSigmaDeg float64
	// LOLeakSigma is the sigma of the carrier feedthrough amplitude.
	LOLeakSigma float64
	// PAGainSigmaDB is the sigma of the PA small-signal gain in dB.
	PAGainSigmaDB float64
	// DCDEBiasSigma is the sigma of the DCDE static bias in seconds.
	DCDEBiasSigma float64
	// ChannelGainSigmaDB is the per-ADC-channel gain-error sigma in dB.
	ChannelGainSigmaDB float64
	// ChannelOffsetSigma is the per-channel offset sigma in volts.
	ChannelOffsetSigma float64
}

// TypicalSpread returns a credible in-spec production population.
func TypicalSpread() ProcessSpread {
	return ProcessSpread{
		IQGainSigmaDB:      0.1,
		IQPhaseSigmaDeg:    0.5,
		LOLeakSigma:        0.005,
		PAGainSigmaDB:      0.3,
		DCDEBiasSigma:      5e-12,
		ChannelGainSigmaDB: 0.1,
		ChannelOffsetSigma: 0.005,
	}
}

// Outcome is what one unit's run means for its lot: the single rule that
// yield lots, campaign cells and the fleet's running yield all share. A unit
// that cannot be measured carries Err, does not pass (it does not ship) and
// has no mask verdict.
type Outcome struct {
	Pass bool
	Err  string
	// HasMargin reports whether the run produced a mask verdict; MarginDB
	// is meaningful only when it did, so a genuine 0 dB margin stays
	// distinct from "no verdict".
	HasMargin bool
	MarginDB  float64
	SkewPS    float64
}

// OutcomeOf reduces one unit's run to its Outcome. A non-nil err means the
// unit could not be measured: Pass is false and there is no margin.
func OutcomeOf(r *Report, err error) Outcome {
	if err != nil {
		return Outcome{Err: err.Error()}
	}
	o := Outcome{Pass: r.Pass, SkewPS: r.SkewErrPS()}
	if r.Mask != nil {
		o.HasMargin, o.MarginDB = true, r.Mask.WorstMarginDB
	}
	return o
}

// Tally folds unit Outcomes into lot counts and tails. The zero value is
// an empty lot.
type Tally struct {
	Units int
	// Rejected counts units that did not pass, errored ones included.
	Rejected int
	Errors   int
	// HasMargin reports whether any unit had a mask verdict; WorstMarginDB
	// is the minimum over those units and 0 when there were none.
	HasMargin     bool
	WorstMarginDB float64
	WorstSkewPS   float64
}

// Add folds one unit's Outcome into the tally.
func (t *Tally) Add(o Outcome) {
	t.Units++
	if !o.Pass {
		t.Rejected++
	}
	if o.Err != "" {
		t.Errors++
	}
	if o.HasMargin && (!t.HasMargin || o.MarginDB < t.WorstMarginDB) {
		t.HasMargin, t.WorstMarginDB = true, o.MarginDB
	}
	if o.SkewPS > t.WorstSkewPS {
		t.WorstSkewPS = o.SkewPS
	}
}

// UnitResult records one simulated unit's outcome.
type UnitResult struct {
	Unit   int
	Pass   bool
	SkewPS float64
	// WorstMarginDB is the mask margin (when a mask ran; 0 otherwise).
	WorstMarginDB float64
}

// YieldReport aggregates a Monte-Carlo production run.
type YieldReport struct {
	Units  []UnitResult
	Passes int
	// Errors counts units that could not be measured; each is also a
	// failed unit (not among Passes).
	Errors int
	// Yield is Passes / len(Units).
	Yield float64
	// WorstSkewPS and WorstMarginDB summarise the tails. WorstMarginDB is
	// taken over the units with a mask verdict, and is 0 when none has one.
	WorstSkewPS   float64
	WorstMarginDB float64
}

// UnitConfig derives unit u's impairment draw. Each unit owns an RNG
// seeded from the lot seed plus its index (splitmix-style mixing keeps
// neighbouring seeds decorrelated), so the draw depends only on (seed, u):
// reproducible at any worker count, stable under lot resizing, and free of
// shared state across goroutines. RunYield and the campaign grid share it,
// so a lot sharded over the pool — or resumed from any unit index — derives
// bit-identical device configurations.
func UnitConfig(base Config, spread ProcessSpread, seed int64, u int) Config {
	rng := rand.New(rand.NewSource(mixSeed(seed, int64(u))))
	cfg := base
	cfg.Seed = base.Seed + int64(u)
	cfg.TimesSeed = base.TimesSeed + int64(u)
	cfg.TI.Seed = base.TI.Seed + int64(u)*17
	cfg.TI.Ch0.Seed = base.TI.Ch0.Seed + int64(u)*31
	cfg.TI.Ch1.Seed = base.TI.Ch1.Seed + int64(u)*37
	cfg.CalibrateMismatch = true
	gainDB := spread.IQGainSigmaDB * rng.NormFloat64()
	phaseDeg := spread.IQPhaseSigmaDeg * rng.NormFloat64()
	leak := complex(spread.LOLeakSigma*rng.NormFloat64(), spread.LOLeakSigma*rng.NormFloat64())
	if gainDB != 0 || phaseDeg != 0 || leak != 0 {
		cfg.Tx.IQ = rf.FromImbalanceDB(gainDB, phaseDeg, leak)
	}
	if spread.PAGainSigmaDB > 0 {
		g := dsp.FromAmplitudeDB(spread.PAGainSigmaDB * rng.NormFloat64())
		cfg.Tx.PA = &rf.LinearPA{Gain: complex(g, 0)}
	}
	cfg.TI.DCDE.Bias = spread.DCDEBiasSigma * rng.NormFloat64()
	cfg.TI.Ch0.Gain = dsp.FromAmplitudeDB(spread.ChannelGainSigmaDB * rng.NormFloat64())
	cfg.TI.Ch1.Gain = dsp.FromAmplitudeDB(spread.ChannelGainSigmaDB * rng.NormFloat64())
	cfg.TI.Ch0.Offset = spread.ChannelOffsetSigma * rng.NormFloat64()
	cfg.TI.Ch1.Offset = spread.ChannelOffsetSigma * rng.NormFloat64()
	return cfg
}

// mixSeed combines the lot seed with a unit index via the SplitMix64
// finaliser, so that consecutive (seed, u) pairs land far apart in the
// generator's state space.
func mixSeed(seed, u int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(u+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// RunYield simulates nUnits devices drawn from the spread through the full
// BIST and reports the yield. The base configuration supplies everything
// not varied (waveform, rates, thresholds); calibration is enabled so
// benign channel mismatch does not eat yield. A unit that cannot be
// measured counts as a failed unit, never as an error of the lot. Units
// fan out over the par pool; because every unit derives its own RNG from
// the lot seed and its index, the report is identical at any worker count.
func RunYield(base Config, spread ProcessSpread, nUnits int, seed int64) (*YieldReport, error) {
	if nUnits < 1 {
		return nil, fmt.Errorf("core: yield run needs at least one unit")
	}
	outs := make([]Outcome, nUnits)
	par.For(nUnits, func(u int) {
		var r *Report
		b, err := New(UnitConfig(base, spread, seed, u))
		if err == nil {
			r, err = b.Run()
		}
		outs[u] = OutcomeOf(r, err)
	})
	var t Tally
	units := make([]UnitResult, nUnits)
	for u, o := range outs {
		t.Add(o)
		units[u] = UnitResult{Unit: u, Pass: o.Pass, SkewPS: o.SkewPS, WorstMarginDB: o.MarginDB}
	}
	passes := t.Units - t.Rejected
	return &YieldReport{
		Units:         units,
		Passes:        passes,
		Errors:        t.Errors,
		Yield:         float64(passes) / float64(nUnits),
		WorstSkewPS:   t.WorstSkewPS,
		WorstMarginDB: t.WorstMarginDB,
	}, nil
}
