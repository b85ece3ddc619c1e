package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail
// percentile: fewer than that and the "percentile" is one or two
// outliers, not a property of the distribution.
const minTail = 10

// tailLadder holds the tail percentiles the benchmark may report, in
// rising order; the reported one is the highest with minTail samples
// beyond it. It stops at p99, the tail the per-layer metrics name.
var tailLadder = []float64{90, 95, 99}

// summary is a sample set reduced by the percentile rule: the median,
// the highest ladder percentile that still has minTail samples beyond
// it (TailPct 0 when there are too few samples for any), and the sample
// count.
type summary struct {
	N       int     `json:"n"`
	Median  float64 `json:"median"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	Max     float64 `json:"max"`
}

// summarize applies the percentile rule to xs (which it sorts in
// place).
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	sort.Float64s(xs)
	s := summary{N: len(xs), Median: quantile(xs, 0.5), Max: xs[len(xs)-1]}
	for _, p := range tailLadder {
		if float64(len(xs))*(100-p) >= 100*minTail {
			s.TailPct, s.Tail = p, quantile(xs, p/100)
		}
	}
	return s
}

// tailOrMax is the tail the summary reports under a ".p99" name: the
// rule's percentile when one qualifies, else the maximum (the honest
// upper bound of a small sample). String says which it was.
func (s summary) tailOrMax() float64 {
	if s.TailPct == 0 {
		return s.Max
	}
	return s.Tail
}

func (s summary) String() string {
	if s.TailPct == 0 {
		return fmt.Sprintf("median %.4g max %.4g (n=%d, no tail percentile has %d samples beyond it)", s.Median, s.Max, s.N, minTail)
	}
	return fmt.Sprintf("median %.4g p%g %.4g (n=%d)", s.Median, s.TailPct, s.Tail, s.N)
}

// quantile interpolates linearly between the order statistics of the
// sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return quantile(c, 0.5)
}

// ratio is num/den, 0 when den is 0 (an undefined share of nothing).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
