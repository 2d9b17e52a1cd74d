package core

import (
	"repro/internal/adc"
	"repro/internal/mask"
	"repro/internal/modem"
	"repro/internal/rf"
	"repro/internal/sig"
	"repro/internal/tiadc"
)

// PaperScenario returns the Section V simulation configuration: 10 MHz QPSK
// shaped by SRRC alpha = 0.5 at fc = 1 GHz, captured by two 10-bit ADCs at
// B = 90 MHz with 3 ps rms clock jitter, DCDE programmed to 180 ps, LMS
// initialised with mu = 1 ps.
func PaperScenario() Config {
	return Config{
		Constellation: "QPSK",
		SymbolRate:    10e6,
		RollOff:       0.5,
		Seed:          2014,
		BasebandPower: 0.5,

		Fc: 1e9,
		Tx: rf.TxConfig{}, // healthy: impairment-free

		B:        90e6,
		NominalD: 180e-12,
		TI: tiadc.Config{
			Ch0:            adc.Config{Bits: 10, FullScale: 1.5, Seed: 101},
			Ch1:            adc.Config{Bits: 10, FullScale: 1.5, Seed: 202},
			DCDE:           tiadc.DCDE{Min: 0, Max: 480e-12},
			ClockJitterRMS: 3e-12,
			Seed:           303,
		},
		CaptureLen:   2200,
		CaptureStart: 0,

		NTimes:    300,
		TimesSeed: 404,

		Mask: mask.WidebandQPSK15M(),
	}
}

// ScaleAcquisition shrinks c's capture, estimation grid and PSD in
// proportion to scale (1 keeps the paper sizes), floored at the sizes below
// which the estimator is not credible. The experiments and campaign
// runners share it so a given scale means the same unit everywhere.
func ScaleAcquisition(c Config, scale float64) Config {
	c.CaptureLen = max(int(2200*scale), 700)
	c.NTimes = max(int(300*scale), 60)
	c.PSDLen = max(int(2048*scale), 512)
	c.SegLen = c.PSDLen / 4
	return c
}

// MultistandardScenarios returns a set of waveform/carrier configurations
// demonstrating the flexibility claim of Section II-B: the same BIST
// hardware covers every configuration at the minimal per-channel rate, with
// no per-configuration clock planning.
func MultistandardScenarios() []Config {
	base := PaperScenario()
	mk := func(name string, symRate, fc, b float64, m *mask.Mask) Config {
		c := base
		c.Constellation = name
		c.SymbolRate = symRate
		c.Fc = fc
		c.B = b
		c.NominalD = 0 // re-derive the optimal delay for the new carrier
		// Scale the DCDE range with the carrier (optimal D = 1/(4 fc)).
		c.TI.DCDE.Max = 0.35 / fc
		// Hold the clock's PHASE jitter constant across carriers (3 ps at
		// 1 GHz): sampling-clock jitter requirements scale with the carrier
		// exactly like LO phase-noise requirements (paper §II-B.3, ref
		// [15]), so a radio built for a higher band ships a better clock.
		c.TI.ClockJitterRMS = 3e-12 * 1e9 / fc
		c.Mask = m
		return c
	}
	// Capture rates are chosen so frac(2 fc / B) lies in (0, 0.5]; outside
	// that range the centred half-rate band violates the Eq. (9b)
	// uniqueness condition (k+ B = k1+ B1). See CheckFeasibility.
	out := []Config{
		mk("QPSK", 10e6, 1e9, 90e6, mask.WidebandQPSK15M()),
		mk("16QAM", 3.2e6, 2.2e9, 72e6, mask.WidebandOFDMLike()),
		mk("8PSK", 1.6e6, 450e6, 44e6, mask.WidebandOFDMLike()),
		mk("BPSK", 5e6, 3.1e9, 72e6, mask.WidebandQPSK15M()),
	}
	for i := range out {
		out[i].Name = out[i].Constellation
	}
	// A multicarrier waveform the paper never simulated: 64-subcarrier
	// CP-OFDM at 1.45 GHz — "standards yet to appear" (Section I).
	ofdm, err := modem.NewOFDM(modem.OFDMConfig{
		Subcarriers: 64,
		Spacing:     156.25e3,
		Seed:        64,
	})
	if err != nil {
		panic("core: OFDM scenario: " + err.Error())
	}
	oc := mk("QPSK", 10e6, 1.45e9, 90e6, mask.WidebandMulticarrier10M())
	oc.Name = "OFDM-64"
	// Scale for the ADC full scale given OFDM's ~10 dB PAPR.
	oc.Baseband = sig.ScaleEnv(ofdm, 0.5)
	out = append(out, oc)
	// The opposite waveform corner: constant-envelope GMSK (BT = 0.3), the
	// saturated-PA tactical waveform class.
	gmsk, err := modem.NewCPM(modem.CPMConfig{SymbolRate: 2e6, BT: 0.3, Symbols: 256, Seed: 77})
	if err != nil {
		panic("core: GMSK scenario: " + err.Error())
	}
	gc := mk("QPSK", 2e6, 520e6, 32e6, mask.WidebandOFDMLike())
	gc.Name = "GMSK"
	gc.Baseband = sig.ScaleEnv(gmsk, 0.7)
	out = append(out, gc)
	return out
}
