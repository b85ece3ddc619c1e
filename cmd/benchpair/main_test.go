package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 1.25, 1.5, 1.75},
		{[]float64{3, 1, 2, 5, 4}, 2, 3, 4},
		// Ten values: positions 2.25, 4.5 and 6.75 between order statistics.
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 3.25, 5.5, 7.75},
	} {
		in := append([]float64(nil), tc.xs...)
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
		for i := range in {
			if in[i] != tc.xs[i] {
				t.Fatalf("quartiles reordered its input: %v, was %v", tc.xs, in)
			}
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestWins(t *testing.T) {
	base := []float64{10, 10, 10, 10}
	change := []float64{9, 10, 11, 8}
	if got := wins(base, change, true); got != 2 {
		t.Errorf("lower-is-better wins = %d, want 2 (the tie counts for neither)", got)
	}
	if got := wins(base, change, false); got != 1 {
		t.Errorf("higher-is-better wins = %d, want 1 (the tie counts for neither)", got)
	}
}

func TestVerdict(t *testing.T) {
	rss := endToEnd{Name: "peak_rss_mb", Better: "lower", Bound: 0.25}
	ok := endToEnd{Name: "visit_ok_ratio", Better: "higher", Bound: 0.15}
	base := []float64{250, 252, 254, 256, 258, 260, 262, 264, 266, 268}
	for _, tc := range []struct {
		name   string
		m      endToEnd
		base   []float64
		change []float64
		want   string
	}{
		{"clear gain", rss, base, []float64{190, 191, 192, 193, 194, 195, 196, 197, 198, 199}, "gain"},
		{"one lost pair of ten still wins", rss, base, []float64{190, 191, 192, 193, 194, 195, 196, 197, 198, 300}, "gain"},
		{"two lost pairs of ten do not", rss, base, []float64{190, 191, 192, 193, 194, 195, 196, 197, 300, 300}, "within bound"},
		{"shift inside the base spread is no gain", rss, base, []float64{249, 251, 253, 255, 257, 259, 261, 263, 265, 267}, "within bound"},
		{"worse beyond the bound", rss, base, []float64{330, 331, 332, 333, 334, 335, 336, 337, 338, 339}, "worse"},
		{"worse within the bound", rss, base, []float64{270, 271, 272, 273, 274, 275, 276, 277, 278, 279}, "within bound"},
		{"spread wider than the bound", rss, []float64{100, 100, 200, 200}, []float64{150, 150, 150, 150}, "unresolved"},
		{"separated but inside the base spread", rss, []float64{100, 100, 200, 200}, []float64{99, 99, 99, 99}, "within bound"},
		{"higher is better", ok, []float64{0.90, 0.91, 0.90, 0.91}, []float64{0.95, 0.96, 0.95, 0.96}, "gain"},
		{"equal", ok, []float64{0.9, 0.9, 0.9}, []float64{0.9, 0.9, 0.9}, "within bound"},
	} {
		if got := verdict(tc.m, tc.base, tc.change); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// writeRun writes one perfbench output: a detail line, then the result
// line.
func writeRun(t *testing.T, path string, correct bool, failed int, rss float64) {
	t.Helper()
	out := fmt.Sprintf("{\"workload\":\"crawl-cold\"}\n{\"correct\":%v,\"attempted\":3,\"failed\":%d,\"metrics\":{\"peak_rss_mb\":{\"value\":%g,\"unit\":\"MB\"}}}\n",
		correct, failed, rss)
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestReport(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 10; i++ {
		writeRun(t, filepath.Join(dir, fmt.Sprintf("%d-base.json", i)), true, 0, 250+float64(i))
		writeRun(t, filepath.Join(dir, fmt.Sprintf("%d-change.json", i)), true, 0, 190+float64(i))
	}
	pairs, err := readPairs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10 {
		t.Fatalf("read %d pairs, want 10", len(pairs))
	}
	metrics := []endToEnd{
		{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
		{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	}
	var buf bytes.Buffer
	report(&buf, metrics, pairs)
	out := buf.String()
	for _, want := range []string{
		"peak_rss_mb (MB)", "255.5 [253.2, 257.8]", "195.5 [193.2, 197.8]", "-23.5%", "10/10", "gain",
		"cpu_s", "absent",
		"10 pairs; correct runs: base 10, change 10; failed operations: base 0, change 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}

	// More failed operations on the change void the gain.
	writeRun(t, filepath.Join(dir, "3-change.json"), false, 1, 193)
	pairs, err = readPairs(dir)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	report(&buf, metrics, pairs)
	if out := buf.String(); !strings.Contains(out, "void: more failed operations") || !strings.Contains(out, "warning: a run failed") {
		t.Errorf("gain not voided by a failed change run:\n%s", out)
	}
}

func TestReadPairsErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := readPairs(dir); err == nil {
		t.Error("an empty directory should be an error")
	}
	writeRun(t, filepath.Join(dir, "1-base.json"), true, 0, 250)
	if _, err := readPairs(dir); err == nil {
		t.Error("a pair with no change run should be an error")
	}
	if err := os.WriteFile(filepath.Join(dir, "1-change.json"), []byte("build failed\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readPairs(dir); err == nil || !strings.Contains(err.Error(), "not a perfbench result line") {
		t.Errorf("output without a result line: err = %v", err)
	}
}
