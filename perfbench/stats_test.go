package main

import (
	"math"
	"testing"

	"pornweb/internal/core"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort
	}
	return xs
}

func TestSummarizePercentileRule(t *testing.T) {
	cases := []struct {
		n       int
		tailPct float64
	}{
		{1, 0},
		{99, 0},    // 9.9 samples beyond p90: no tail qualifies
		{100, 90},  // exactly 10 beyond p90
		{199, 90},  // 9.95 beyond p95
		{200, 95},  // 10 beyond p95
		{999, 95},  // 9.99 beyond p99
		{1000, 99}, // 10 beyond p99
		{50000, 99},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n {
			t.Errorf("n=%d: sample count %d", c.n, s.N)
		}
		if s.TailPct != c.tailPct {
			t.Errorf("n=%d: tail percentile %g, want %g", c.n, s.TailPct, c.tailPct)
		}
		if want := float64(c.n+1) / 2; s.Median != want {
			t.Errorf("n=%d: median %g, want %g", c.n, s.Median, want)
		}
		if s.Max != float64(c.n) {
			t.Errorf("n=%d: max %g", c.n, s.Max)
		}
	}
}

func TestSummarizeTailValue(t *testing.T) {
	s := summarize(seq(1000)) // 1..1000
	// Linear interpolation: position 0.99*999 = 989.01 -> 990.01.
	if math.Abs(s.Tail-990.01) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %g, want 990.01", s.Tail)
	}
	if s.tailOrMax() != s.Tail {
		t.Errorf("tailOrMax %g, want the p99 %g", s.tailOrMax(), s.Tail)
	}
	small := summarize([]float64{3, 1, 2})
	if small.tailOrMax() != 3 {
		t.Errorf("without a qualifying percentile tailOrMax must be the max, got %g", small.tailOrMax())
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{5, 1, 4, 2}
	if m := median(xs); m != 3 {
		t.Errorf("median %g, want 3", m)
	}
	if xs[0] != 5 || xs[3] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if median(nil) != 0 {
		t.Error("median of nothing must be 0")
	}
}

func TestVisitFailRatio(t *testing.T) {
	rows := []core.CrawlLossRow{
		{Country: "ES", Attempted: 205, Crawled: 191},
		{Country: "US", Attempted: 205, Crawled: 191},
		{Country: "RU", Attempted: 205, Crawled: 192},
		{Country: "UK", Attempted: 205, Crawled: 191},
		{Country: "IN", Attempted: 205, Crawled: 191},
		{Country: "SG", Attempted: 205, Crawled: 191},
	}
	lost, attempted := visitFailures(rows)
	if lost != 83 || attempted != 1230 {
		t.Fatalf("lost/attempted = %d/%d, want 83/1230", lost, attempted)
	}
	if r := ratio(float64(lost), float64(attempted)); math.Abs(r-83.0/1230) > 1e-15 {
		t.Errorf("visit_fail_ratio %g", r)
	}
	if lost, attempted := visitFailures(nil); lost != 0 || attempted != 0 || ratio(0, 0) != 0 {
		t.Error("no rows must give 0/0 and a 0 ratio")
	}
}
