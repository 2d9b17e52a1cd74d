package core

import (
	"fmt"
	"math"

	"repro/internal/modem"
	"repro/internal/pnbs"
	"repro/internal/sig"
)

// EVMOutcome reports the modulation-quality sub-test measured through the
// BIST reconstruction path.
type EVMOutcome struct {
	// RMSPercent and PeakPercent are the error-vector magnitudes.
	RMSPercent, PeakPercent float64
	// DB is the RMS EVM in dB.
	DB float64
	// Symbols is the number of demodulated symbols.
	Symbols int
}

// RunEVMTest demodulates evmSymbols symbols (fewer when the capture is
// short) of the reconstructed waveform with a matched filter and compares
// against the known transmitted symbols (reference-aided EVM, the natural
// choice inside a BIST where the stimulus is self-generated).
// Timing is known absolutely — the BIST generated the waveform — so no
// timing recovery is required; a common complex gain (chain gain and
// static phase) is removed by least squares before the comparison.
func (b *BIST) RunEVMTest(rec *pnbs.Reconstructor) (*EVMOutcome, error) {
	c := b.cfg
	nSym := evmSymbols
	// Reconstructed envelope on a uniform grid; needs enough span for the
	// requested symbols plus the pulse tails.
	ts := 1 / c.SymbolRate
	span := float64(b.bb.Pulse.Span) * ts
	gridN := int((float64(nSym)*ts + 4*span) * c.B)
	// Clamp to what the capture supports; the symbol count shrinks below.
	if rLo, rHi := rec.ValidRange(); gridN > int((rHi-rLo)*c.B)-8 {
		gridN = int((rHi-rLo)*c.B) - 8
	}
	env, fsEnv, t0, err := b.envelopeGrid(rec, gridN)
	if err != nil {
		return nil, fmt.Errorf("core: EVM grid: %w", err)
	}
	cont, err := sig.NewSampledEnvelope(t0, 1/fsEnv, env)
	if err != nil {
		return nil, err
	}
	lo, hi := cont.Span()
	// First symbol whose matched-filter support fits inside the span.
	k0 := int(math.Ceil((lo + span) / ts))
	kEnd := int(math.Floor((hi - span) / ts))
	if kEnd-k0+1 < 8 {
		return nil, fmt.Errorf("core: EVM window too short (%d symbols)", kEnd-k0+1)
	}
	if kEnd-k0+1 < nSym {
		nSym = kEnd - k0 + 1
	}
	mf, err := modem.NewMatchedFilter(b.bb.Pulse, 8)
	if err != nil {
		return nil, err
	}
	// Reference symbols come from the cyclic stream; the shaper's gain is
	// part of the common complex gain mf.EVM removes.
	res, err := mf.EVM(cont, b.bb.Symbols, k0, nSym)
	if err != nil {
		return nil, err
	}
	return &EVMOutcome{
		RMSPercent:  res.RMSPercent,
		PeakPercent: res.PeakPercent,
		DB:          res.DB,
		Symbols:     nSym,
	}, nil
}
