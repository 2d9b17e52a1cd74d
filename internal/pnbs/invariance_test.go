package pnbs

import (
	"math/rand"
	"testing"

	"repro/internal/par"
)

// The PNBS reconstruction must be a pure function of (capture, delay,
// instant): evaluating a batch in any order, at any pool width, must yield
// bit-identical values per instant. These are the metamorphic guarantees
// the parallel experiment runners rely on.

func invarianceFixture(t *testing.T) (*Reconstructor, []float64) {
	t.Helper()
	band := Band{FLow: 955e6, B: 90e6}
	d := 180e-12
	ch0, ch1 := toneCapture(band, d, 300)
	r, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := r.ValidRange()
	rng := rand.New(rand.NewSource(7))
	ts := make([]float64, 193)
	for i := range ts {
		ts[i] = lo + (hi-lo)*rng.Float64()
	}
	return r, ts
}

func TestAtTimesPermutationInvariance(t *testing.T) {
	r, ts := invarianceFixture(t)
	base := r.AtTimes(ts)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		perm := rng.Perm(len(ts))
		shuffled := make([]float64, len(ts))
		for i, j := range perm {
			shuffled[i] = ts[j]
		}
		got := r.AtTimes(shuffled)
		for i, j := range perm {
			if got[i] != base[j] {
				t.Fatalf("trial %d: At(ts[%d]) = %g via permutation, %g in order",
					trial, j, got[i], base[j])
			}
		}
	}
}

// requireAtTimesMatchesSerial requires AtTimes(ts) to equal the serial At
// loop bit for bit at each of the given pool widths.
func requireAtTimesMatchesSerial(t *testing.T, r *Reconstructor, ts []float64, workers []int) {
	t.Helper()
	serial := make([]float64, len(ts))
	for i, tv := range ts {
		serial[i] = r.At(tv)
	}
	for _, w := range workers {
		prev := par.SetWorkers(w)
		got := r.AtTimes(ts)
		par.SetWorkers(prev)
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: AtTimes[%d] = %g, serial %g", w, i, got[i], serial[i])
			}
		}
	}
}

// TestAtTimesParallelMatchesSerial checks a uniform sweep of the valid
// range at every pool width.
func TestAtTimesParallelMatchesSerial(t *testing.T) {
	r, _ := invarianceFixture(t)
	lo, hi := r.ValidRange()
	ts := make([]float64, 257)
	for i := range ts {
		ts[i] = lo + (hi-lo)*float64(i)/float64(len(ts)-1)
	}
	requireAtTimesMatchesSerial(t, r, ts, []int{1, 2, 3, 4, 8, 16})
}

// TestAtTimesWorkerCountInvariance checks random instants at every pool
// width.
func TestAtTimesWorkerCountInvariance(t *testing.T) {
	r, ts := invarianceFixture(t)
	requireAtTimesMatchesSerial(t, r, ts, []int{1, 2, 3, 8, 16})
}

// TestEnvelopeGridWorkerCountInvariance requires the chunked grid fan-out
// to give the same bytes at every pool width, over a grid that spans
// several chunks and both capture edges (table and At paths).
func TestEnvelopeGridWorkerCountInvariance(t *testing.T) {
	r, _ := invarianceFixture(t)
	fs := 4 * r.kern.band.B
	t0 := -10 * r.tStep
	n := 4 * (len(r.ch0) + 20)
	var want []complex128
	for _, w := range []int{1, 2, 3, 8} {
		prev := par.SetWorkers(w)
		got := make([]complex128, n)
		r.EnvelopeGridInto(r.kern.band.Fc(), t0, fs, got)
		par.SetWorkers(prev)
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: grid[%d] = %v, serial %v", w, i, got[i], want[i])
			}
		}
	}
}
