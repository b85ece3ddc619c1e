// Command benchpair summarizes paired perfbench runs of a base commit and
// a change. `make benchpair` produces its input: a directory holding, for
// pair N, the standard output of one perfbench run on each side as
// N-base.json and N-change.json.
//
//	benchpair -benchmark BENCHMARK.json DIR
//
// For each end-to-end metric BENCHMARK.json declares, it prints each
// side's median and quartiles, the change's median relative to the
// base's, and in how many pairs the change read better (ties count for
// neither side). The verdict column applies the pairing rule:
//
//   - gain: the change won at least nine tenths of the pairs and its
//     median is better than the base's by more than the base's
//     interquartile range;
//   - worse: the change's median is worse than the base's by more than
//     the metric's bound (a fraction of the base median);
//   - unresolved: the base's interquartile range is wider than the bound
//     and not every change run reads better than every base run, so the
//     runs cannot tell a shift within the bound from noise;
//   - within bound: anything else.
//
// Quartiles interpolate linearly between order statistics. A last line
// reports how many runs on each side were correct and how many
// operations failed. benchpair exits 1 on unreadable input.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"text/tabwriter"
)

// endToEnd is one end-to-end metric of BENCHMARK.json.
type endToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is perfbench's last output line.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// pair is one base run and one change run.
type pair struct{ base, change result }

func main() {
	benchmark := flag.String("benchmark", "BENCHMARK.json", "benchmark declaration naming the end-to-end metrics")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchpair [-benchmark BENCHMARK.json] DIR")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	metrics, err := readMetrics(*benchmark)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
	pairs, err := readPairs(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
	report(os.Stdout, metrics, pairs)
}

func readMetrics(path string) ([]endToEnd, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []endToEnd `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(decl.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s declares no end_to_end metrics", path)
	}
	return decl.EndToEnd, nil
}

// readPairs loads N-base.json and N-change.json for N = 1, 2, … until
// neither exists; a pair with only one side is an error.
func readPairs(dir string) ([]pair, error) {
	var out []pair
	for n := 1; ; n++ {
		base, berr := readResult(filepath.Join(dir, strconv.Itoa(n)+"-base.json"))
		change, cerr := readResult(filepath.Join(dir, strconv.Itoa(n)+"-change.json"))
		if os.IsNotExist(berr) && os.IsNotExist(cerr) {
			break
		}
		if berr != nil {
			return nil, berr
		}
		if cerr != nil {
			return nil, cerr
		}
		out = append(out, pair{base, change})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no 1-base.json/1-change.json pair", dir)
	}
	return out, nil
}

// readResult parses the last non-empty line of one run's output.
func readResult(path string) (result, error) {
	f, err := os.Open(path)
	if err != nil {
		return result{}, err
	}
	defer f.Close()
	var last []byte
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20) // the detail line carries every repetition
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, fmt.Errorf("%s: %w", path, err)
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil || r.Metrics == nil {
		return result{}, fmt.Errorf("%s: last line is not a perfbench result line", path)
	}
	return r, nil
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quartiles returns the first quartile, median and third quartile of xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// wins counts the pairs in which the change reads strictly better.
func wins(base, change []float64, lowerIsBetter bool) int {
	n := 0
	for i := range base {
		if better(change[i], base[i], lowerIsBetter) {
			n++
		}
	}
	return n
}

func better(a, b float64, lowerIsBetter bool) bool {
	if lowerIsBetter {
		return a < b
	}
	return a > b
}

// verdict applies the pairing rule to one metric's paired values.
func verdict(m endToEnd, base, change []float64) string {
	lower := m.Better == "lower"
	bq1, bmed, bq3 := quartiles(base)
	_, cmed, _ := quartiles(change)
	if w := wins(base, change, lower); 10*w >= 9*len(base) && better(cmed, bmed, lower) && math.Abs(cmed-bmed) > bq3-bq1 {
		return "gain"
	}
	if better(bmed, cmed, lower) && math.Abs(cmed-bmed) > m.Bound*math.Abs(bmed) {
		return "worse"
	}
	if bq3-bq1 > m.Bound*math.Abs(bmed) && !separated(base, change, lower) {
		return "unresolved"
	}
	return "within bound"
}

// separated reports whether every change value is better than every base
// value.
func separated(base, change []float64, lowerIsBetter bool) bool {
	for _, c := range change {
		for _, b := range base {
			if !better(c, b, lowerIsBetter) {
				return false
			}
		}
	}
	return true
}

func report(w io.Writer, metrics []endToEnd, pairs []pair) {
	var bc, cc, bf, cf int
	for _, p := range pairs {
		if p.base.Correct {
			bc++
		}
		if p.change.Correct {
			cc++
		}
		bf += p.base.Failed
		cf += p.change.Failed
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tbetter\tbase median [q1, q3]\tchange median [q1, q3]\tchange/base\twins\tverdict\n")
	for _, m := range metrics {
		var base, change []float64
		for _, p := range pairs {
			b, bok := p.base.Metrics[m.Name]
			c, cok := p.change.Metrics[m.Name]
			if bok && cok {
				base, change = append(base, b.Value), append(change, c.Value)
			}
		}
		if len(base) == 0 {
			fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\tabsent\n", m.Name, m.Better)
			continue
		}
		bq1, bmed, bq3 := quartiles(base)
		cq1, cmed, cq3 := quartiles(change)
		ratio := "-"
		if bmed != 0 {
			ratio = fmt.Sprintf("%+.1f%%", 100*(cmed-bmed)/math.Abs(bmed))
		}
		v := verdict(m, base, change)
		if v == "gain" && cf > bf {
			// A gain does not count when the change fails more operations.
			v = "void: more failed operations"
		}
		fmt.Fprintf(tw, "%s (%s)\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%d/%d\t%s\n",
			m.Name, m.Unit, m.Better, bmed, bq1, bq3, cmed, cq1, cq3, ratio,
			wins(base, change, m.Better == "lower"), len(base), v)
	}
	tw.Flush()
	fmt.Fprintf(w, "%d pairs; correct runs: base %d, change %d; failed operations: base %d, change %d\n",
		len(pairs), bc, cc, bf, cf)
	if bc < len(pairs) || cc < len(pairs) {
		fmt.Fprintln(w, "warning: a run failed its correctness checks; its metrics are not comparable")
	}
}
