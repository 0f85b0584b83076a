package svcload

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile (0..1) of samples by linear
// interpolation between order statistics; 0 for no samples. It sorts a
// copy.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// Median is the 0.5-quantile.
func Median(samples []float64) float64 { return Quantile(samples, 0.5) }

// Mean returns the arithmetic mean; 0 for no samples.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// TrimmedMean returns the mean of what is left of the samples after the
// lowest and the highest share trim of them are dropped (at least one
// sample at either end when there are three or more); 0 for no samples.
// Where the samples come from two states of the host in turn, a median
// jumps from one state to the other with the majority; this moves with
// their shares, and one stalled sample still does not count.
func TrimmedMean(samples []float64, trim float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if drop := max(int(trim*float64(len(s))), 1); len(s) > 2*drop {
		s = s[drop : len(s)-drop]
	}
	return Mean(s)
}

// tailPercentiles are the tail percentiles a report may quote, lowest
// first, each with the share of samples beyond it written as one in n.
var tailPercentiles = []struct {
	q       float64
	oneInto int
}{{0.90, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// minBeyond is how many samples must lie beyond a percentile for it to
// be quoted: fewer, and the value is set by a handful of requests.
const minBeyond = 10

// HighestPercentile returns the highest tail percentile that n samples
// support — the highest with at least ten samples beyond it — or 0 when
// even the 90th has fewer.
func HighestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n >= minBeyond*p.oneInto {
			best = p.q
		}
	}
	return best
}

// Tail returns the q-quantile when the samples support it (see
// HighestPercentile) and 0 when they do not.
func Tail(samples []float64, q float64) float64 {
	if HighestPercentile(len(samples)) < q {
		return 0
	}
	return Quantile(samples, q)
}
