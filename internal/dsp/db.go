package dsp

import "math"

// PowerDB converts a power ratio to decibels (10 log10), clamped at -400 dB
// for non-positive inputs so log-domain plots stay finite.
func PowerDB(p float64) float64 {
	if p <= 0 {
		return -400
	}
	return 10 * math.Log10(p)
}

// FromPowerDB converts decibels to a power ratio.
func FromPowerDB(db float64) float64 { return math.Pow(10, db/10) }

// FromAmplitudeDB converts decibels to an amplitude ratio.
func FromAmplitudeDB(db float64) float64 { return math.Pow(10, db/20) }
