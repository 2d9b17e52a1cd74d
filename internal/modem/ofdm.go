package modem

import (
	"fmt"
	"math"
	"math/rand"
)

// OFDMConfig describes a cyclic-prefix OFDM waveform.
type OFDMConfig struct {
	// Subcarriers is the number of active subcarriers (must be even; they
	// are placed symmetrically around DC, which stays unused).
	Subcarriers int
	// Spacing is the subcarrier spacing in Hz.
	Spacing float64
	// CPFraction is the cyclic-prefix length as a fraction of the useful
	// symbol (0 = 1/8).
	CPFraction float64
	// Constellation maps bits onto each subcarrier (nil = QPSK).
	Constellation *Constellation
	// Symbols is the number of OFDM symbols in the cyclic stream (0 = 16).
	Symbols int
	// Seed drives the random payload.
	Seed int64
	// EdgeTaper is the raised-cosine time-window fraction applied at each
	// symbol boundary to confine the spectrum (0 = 0.05).
	EdgeTaper float64
}

// OFDMEnvelope is a continuous-time OFDM complex envelope: a cyclic stream
// of CP-OFDM symbols evaluable at arbitrary t. It exercises the
// multistandard-BIST claim with a waveform class entirely different from
// single-carrier PSK/QAM — including the paper's "standards yet to appear".
type OFDMEnvelope struct {
	cfg OFDMConfig
	// data[m][k] is the payload of symbol m, subcarrier k.
	data [][]complex128
	// freqs[k] is the baseband frequency of subcarrier k.
	freqs   []float64
	tUseful float64
	tCP     float64
	tSym    float64
	period  float64
}

// NewOFDM validates the configuration and draws the payload.
func NewOFDM(cfg OFDMConfig) (*OFDMEnvelope, error) {
	if cfg.Subcarriers < 2 || cfg.Subcarriers%2 != 0 {
		return nil, fmt.Errorf("modem: OFDM needs an even subcarrier count >= 2, got %d", cfg.Subcarriers)
	}
	if cfg.Spacing <= 0 {
		return nil, fmt.Errorf("modem: OFDM spacing %g must be positive", cfg.Spacing)
	}
	if cfg.CPFraction == 0 {
		cfg.CPFraction = 1.0 / 8
	}
	if cfg.CPFraction < 0 || cfg.CPFraction > 1 {
		return nil, fmt.Errorf("modem: OFDM CP fraction %g outside [0, 1]", cfg.CPFraction)
	}
	if cfg.Constellation == nil {
		cfg.Constellation = QPSK
	}
	if cfg.Symbols == 0 {
		cfg.Symbols = 16
	}
	if cfg.EdgeTaper == 0 {
		cfg.EdgeTaper = 0.05
	}
	if cfg.EdgeTaper < 0 || cfg.EdgeTaper > 0.5 {
		return nil, fmt.Errorf("modem: OFDM edge taper %g outside [0, 0.5]", cfg.EdgeTaper)
	}
	n := cfg.Subcarriers
	rng := rand.New(rand.NewSource(cfg.Seed))
	o := &OFDMEnvelope{
		cfg:     cfg,
		data:    make([][]complex128, cfg.Symbols),
		freqs:   make([]float64, n),
		tUseful: 1 / cfg.Spacing,
	}
	o.tCP = cfg.CPFraction * o.tUseful
	o.tSym = o.tUseful + o.tCP
	o.period = float64(cfg.Symbols) * o.tSym
	for k := 0; k < n/2; k++ {
		o.freqs[k] = float64(k+1) * cfg.Spacing
		o.freqs[n/2+k] = -float64(k+1) * cfg.Spacing
	}
	scale := complex(1/math.Sqrt(float64(n)), 0)
	pts := cfg.Constellation.Points
	for m := range o.data {
		o.data[m] = make([]complex128, n)
		for k := 0; k < n; k++ {
			o.data[m][k] = pts[rng.Intn(len(pts))] * scale
		}
	}
	return o, nil
}

// At implements sig.Envelope: the payload of the symbol containing t,
// synthesised directly as a sum of subcarrier exponentials (the continuous
// equivalent of IFFT + cyclic prefix), with a raised-cosine edge taper.
func (o *OFDMEnvelope) At(t float64) complex128 {
	// Cyclic extension.
	t = math.Mod(t, o.period)
	if t < 0 {
		t += o.period
	}
	m := int(t / o.tSym)
	if m >= len(o.data) {
		m = len(o.data) - 1
	}
	tin := t - float64(m)*o.tSym
	// CP: the last tCP of the useful symbol replayed first, i.e. the
	// exponentials are referenced to the end of the CP.
	tau := tin - o.tCP
	var acc complex128
	for k, f := range o.freqs {
		ph := 2 * math.Pi * f * tau
		s, c := math.Sincos(ph)
		acc += o.data[m][k] * complex(c, s)
	}
	return acc * complex(o.window(tin), 0)
}

// window applies the raised-cosine symbol-edge taper.
func (o *OFDMEnvelope) window(tin float64) float64 {
	w := o.cfg.EdgeTaper * o.tSym
	if w <= 0 {
		return 1
	}
	switch {
	case tin < w:
		return 0.5 * (1 - math.Cos(math.Pi*tin/w))
	case tin > o.tSym-w:
		return 0.5 * (1 - math.Cos(math.Pi*(o.tSym-tin)/w))
	default:
		return 1
	}
}
