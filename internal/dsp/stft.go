package dsp

import "fmt"

// Spectrogram is a short-time Fourier transform magnitude map, used to
// inspect transient behaviour (burst edges, settling, hopping) of captured
// or reconstructed waveforms.
type Spectrogram struct {
	// Times holds the centre time of each column in seconds.
	Times []float64
	// Freqs holds the (shifted, ascending) frequency axis in Hz.
	Freqs []float64
	// PowerDB[t][f] is the windowed power in dB.
	PowerDB [][]float64
}

// STFT computes a spectrogram of a complex sequence sampled at fs with the
// given segment length and hop. A Hann window is applied per segment.
// Columns are the segment periodograms Welch averages (segmentPowers),
// here turned into dB on the centred axis; each column's numbers depend
// only on its own samples, so the spectrogram is identical at any worker
// count.
func STFT(x []complex128, fs float64, segLen, hop int) (*Spectrogram, error) {
	if segLen < 4 {
		return nil, fmt.Errorf("dsp: STFT segment %d too short", segLen)
	}
	if hop < 1 {
		return nil, fmt.Errorf("dsp: STFT hop %d must be positive", hop)
	}
	if len(x) < segLen {
		return nil, fmt.Errorf("dsp: STFT input %d shorter than segment %d", len(x), segLen)
	}
	nCols := (len(x)-segLen)/hop + 1
	pow := segmentPowers(x, Window(Hann, segLen, 0), hop, nCols)
	sg := &Spectrogram{
		Times:   make([]float64, nCols),
		Freqs:   make([]float64, segLen),
		PowerDB: make([][]float64, nCols),
	}
	df := fs / float64(segLen)
	for i := range sg.Freqs {
		sg.Freqs[i] = (float64(i) - float64(segLen)/2) * df
	}
	// shift maps the natural bin order to the centred axis: row[i] is the
	// power of spectrum bin (shift+i) mod segLen, as FFTShiftFloat orders it.
	shift := (segLen + 1) / 2
	rows := make([]float64, nCols*segLen)
	for c := range sg.PowerDB {
		sg.Times[c] = (float64(c*hop) + float64(segLen)/2) / fs
		p := pow[c*segLen : (c+1)*segLen]
		row := rows[c*segLen : (c+1)*segLen]
		for i := range row {
			row[i] = PowerDB(p[(shift+i)%segLen])
		}
		sg.PowerDB[c] = row
	}
	return sg, nil
}

// PeakTrack returns, for each column, the frequency of the strongest bin —
// a simple instantaneous-frequency track for chirps and hops.
func (s *Spectrogram) PeakTrack() []float64 {
	out := make([]float64, len(s.PowerDB))
	for c, row := range s.PowerDB {
		best := 0
		for i, v := range row {
			if v > row[best] {
				best = i
			}
		}
		out[c] = s.Freqs[best]
	}
	return out
}
