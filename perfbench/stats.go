package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "type 7" rule). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// beyond counts the samples strictly above the q-quantile rank: the number
// of ops a percentile rests on. A percentile needs at least ten of them to
// be steady from run to run.
func beyond(n int, q float64) int {
	return n - 1 - int(math.Floor(q*float64(n-1)))
}

// classGap is the relative step between neighbouring kinds' median
// latencies above which their boundary counts in classMargin: below it the
// kinds' latencies overlap and a percentile moving across the boundary
// barely moves.
const classGap = 0.10

// classMargin reports how far the q-quantile's rank sits from the nearest
// boundary between op kinds, as a share of all ops. Kinds are ordered by
// their median latency and each occupies its share of the op list; when
// neighbouring kinds' latencies are well apart (by more than classGap), a
// percentile whose rank lands on their boundary flips between the two from
// run to run. A margin of zero means the rank sits exactly on such a
// boundary; +Inf means there is none.
func classMargin(weights map[string]int, kindP50 map[string]float64, q float64) float64 {
	kinds := make([]string, 0, len(weights))
	total := 0
	for k, w := range weights {
		kinds = append(kinds, k)
		total += w
	}
	sort.Slice(kinds, func(i, j int) bool {
		if kindP50[kinds[i]] != kindP50[kinds[j]] {
			return kindP50[kinds[i]] < kindP50[kinds[j]]
		}
		return kinds[i] < kinds[j]
	})
	margin := math.Inf(1)
	cum := 0
	for i, k := range kinds[:len(kinds)-1] {
		cum += weights[k]
		if kindP50[kinds[i+1]] > (1+classGap)*kindP50[k] {
			margin = math.Min(margin, math.Abs(float64(cum)/float64(total)-q))
		}
	}
	return margin
}
