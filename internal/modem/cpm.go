package modem

import (
	"fmt"
	"math"
	"math/rand"
)

// CPMConfig describes a continuous-phase modulation waveform (MSK/GMSK
// family): binary symbols drive a frequency pulse g(t) whose integral q(t)
// accumulates phase. Constant envelope makes CPM the waveform of choice for
// saturated-PA tactical radios — the opposite corner of the waveform space
// from OFDM, and a natural multistandard BIST probe.
type CPMConfig struct {
	// SymbolRate in symbols/s.
	SymbolRate float64
	// ModIndex is the modulation index h (0 = 0.5, MSK).
	ModIndex float64
	// BT is the Gaussian filter bandwidth-time product; 0 = 0.3 (GSM-style
	// GMSK). Use a large value (e.g. 10) for near-rectangular MSK pulses.
	BT float64
	// Symbols is the cyclic stream length (0 = 256).
	Symbols int
	// Seed draws the random +-1 data.
	Seed int64
}

// CPMEnvelope is the continuous complex envelope exp(i phi(t)).
type CPMEnvelope struct {
	cfg  CPMConfig
	data []int // +-1 symbols
	ts   float64
	// q holds the phase-pulse integral sampled on a dense grid over
	// [-span Ts, +span Ts]; it saturates at 0 before and 1/2 after
	// (LREC/LRC convention: q(inf) = 1/2).
	q      []float64
	qT0    float64
	qDt    float64
	span   int
	period float64
	// phaseStep[k] is the accumulated full-symbol phase before symbol k.
	phaseAcc []float64
}

// NewCPM validates the configuration, integrates the Gaussian frequency
// pulse and precomputes the per-symbol phase accumulation.
func NewCPM(cfg CPMConfig) (*CPMEnvelope, error) {
	if cfg.SymbolRate <= 0 {
		return nil, fmt.Errorf("modem: CPM symbol rate %g must be positive", cfg.SymbolRate)
	}
	if cfg.ModIndex == 0 {
		cfg.ModIndex = 0.5
	}
	if cfg.ModIndex < 0 {
		return nil, fmt.Errorf("modem: CPM modulation index %g must be positive", cfg.ModIndex)
	}
	if cfg.BT == 0 {
		cfg.BT = 0.3
	}
	if cfg.BT < 0.05 {
		return nil, fmt.Errorf("modem: CPM BT %g too small", cfg.BT)
	}
	if cfg.Symbols == 0 {
		cfg.Symbols = 256
	}
	ts := 1 / cfg.SymbolRate
	// Gaussian frequency pulse truncated to +-span symbols; the span grows
	// as BT shrinks.
	span := int(math.Ceil(2.5/cfg.BT)) + 1
	if span < 2 {
		span = 2
	}
	if cfg.Symbols <= 2*span+2 {
		return nil, fmt.Errorf("modem: CPM needs > %d symbols for BT = %g (cyclic seam)",
			2*span+2, cfg.BT)
	}
	const overs = 64 // integration grid per symbol period
	nGrid := 2*span*overs + 1
	g := make([]float64, nGrid)
	sigma := math.Sqrt(math.Ln2) / (2 * math.Pi * cfg.BT / ts)
	sum := 0.0
	dt := ts / overs
	for i := range g {
		t := -float64(span)*ts + float64(i)*dt
		// Gaussian-smoothed rectangular frequency pulse of width Ts.
		g[i] = gaussSmoothedRect(t, ts, sigma)
		sum += g[i] * dt
	}
	// Normalise so q(inf) = 1/2.
	q := make([]float64, nGrid)
	acc := 0.0
	for i := range g {
		acc += g[i] * dt
		q[i] = acc / sum / 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	data := make([]int, cfg.Symbols)
	for i := range data {
		data[i] = 2*rng.Intn(2) - 1
	}
	c := &CPMEnvelope{
		cfg:    cfg,
		data:   data,
		ts:     ts,
		q:      q,
		qT0:    -float64(span) * ts,
		qDt:    dt,
		span:   span,
		period: float64(cfg.Symbols) * ts,
	}
	// Accumulated phase of fully elapsed symbols: each contributes
	// 2 pi h a_k q(inf) = pi h a_k.
	c.phaseAcc = make([]float64, cfg.Symbols+1)
	for k := 0; k < cfg.Symbols; k++ {
		c.phaseAcc[k+1] = c.phaseAcc[k] + math.Pi*cfg.ModIndex*float64(data[k])
	}
	return c, nil
}

// gaussSmoothedRect evaluates the convolution of a unit rectangular pulse
// of width ts with a Gaussian of deviation sigma:
// 0.5 [erf((t + ts/2)/(sqrt2 sigma)) - erf((t - ts/2)/(sqrt2 sigma))] / ts.
func gaussSmoothedRect(t, ts, sigma float64) float64 {
	a := (t + ts/2) / (math.Sqrt2 * sigma)
	b := (t - ts/2) / (math.Sqrt2 * sigma)
	return 0.5 * (math.Erf(a) - math.Erf(b)) / ts
}

// qAt interpolates the precomputed phase pulse integral; saturated outside
// the grid.
func (c *CPMEnvelope) qAt(t float64) float64 {
	x := (t - c.qT0) / c.qDt
	if x <= 0 {
		return 0
	}
	if x >= float64(len(c.q)-1) {
		return 0.5
	}
	i := int(x)
	f := x - float64(i)
	return c.q[i]*(1-f) + c.q[i+1]*f
}

// Phase returns phi(t) in radians. The stream is cyclic; each whole period
// contributes the total phase phaseAcc[N], and pulses straddling the period
// seam are handled explicitly so the trajectory stays continuous.
func (c *CPMEnvelope) Phase(t float64) float64 {
	n := len(c.data)
	h := c.cfg.ModIndex
	wraps := math.Floor(t / c.period)
	tr := t - wraps*c.period
	kc := int(tr / c.ts)
	if kc >= n {
		kc = n - 1
	}
	phi := wraps * c.phaseAcc[n]
	// Symbols of this period fully in the past (pulse saturated) and not
	// re-visited by the transition window below.
	bulkEnd := kc - c.span
	if bulkEnd > 0 {
		phi += c.phaseAcc[bulkEnd]
	}
	// Transition window: every symbol whose pulse overlaps tr. Indices may
	// spill into the previous period (j < 0: the wraps term already counted
	// them at full saturation, so only the deviation from 1/2 is added) or
	// the next one (j >= n: not counted anywhere yet).
	for j := kc - c.span; j <= kc+c.span+1; j++ {
		qv := c.qAt(tr - float64(j)*c.ts)
		switch {
		case j < 0:
			phi += 2 * math.Pi * h * float64(c.data[j+n]) * (qv - 0.5)
		case j >= n:
			phi += 2 * math.Pi * h * float64(c.data[j-n]) * qv
		default:
			phi += 2 * math.Pi * h * float64(c.data[j]) * qv
		}
	}
	return phi
}

// At implements sig.Envelope: a strictly constant-envelope waveform.
func (c *CPMEnvelope) At(t float64) complex128 {
	s, co := math.Sincos(c.Phase(t))
	return complex(co, s)
}
