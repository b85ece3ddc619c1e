// Command benchjson converts `go test -bench` output on stdin into a
// small JSON document on stdout: mean and min ns/op per benchmark, plus
// the ratios the caller declares. `make bench-json` pipes each benchmark
// family through it to produce the BENCH_*.json files.
//
// Each repeatable `-ratio name=NUM/DEN` flag names two benchmarks from
// the input (without the Benchmark prefix) and writes
// `"ratios": {"name": {"mean": …, "min": …}}`: NUM's mean ns/op over
// DEN's, and NUM's fastest run over DEN's. On a shared host wall-clock
// noise is additive, so at one iteration per run the min quotient tracks
// the true cost better than the mean. A ratio whose operand is missing
// from the input fails the invocation (exit 1) before any JSON is
// written.
//
// The studylint benchmarks also yield lint_full_module_seconds
// (BenchmarkLintModule's mean) and lint_analyzer_seconds (each
// BenchmarkLintAnalyzer sub-benchmark's mean). The repeatable
// `-assert-max name=value` flag turns a benchmark into a CI gate: it
// fails the invocation (exit 1), after the JSON is written, when the
// named metric — lint_full_module_seconds,
// lint_analyzer_seconds/ANALYZER, or RATIO/mean and RATIO/min for a
// declared ratio — exceeds value or is absent.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchLine matches e.g.
//
//	BenchmarkStudyRunScheduled-8    3    5833738839 ns/op    389592888 B/op    3670945 allocs/op
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op`)

type bench struct {
	NsPerOp    float64 `json:"ns_per_op"`
	MinNsPerOp float64 `json:"min_ns_per_op,omitempty"`
	Runs       int     `json:"runs"`
}

type ratio struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
}

type output struct {
	Goos       string           `json:"goos,omitempty"`
	Goarch     string           `json:"goarch,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	Benchmarks map[string]bench `json:"benchmarks"`
	Ratios     map[string]ratio `json:"ratios,omitempty"`
	// LintFullModuleSeconds is BenchmarkLintModule's mean wall-clock in
	// seconds — the cost of the always-on `make lint` gate. `make
	// lintbudget` asserts it with -assert-max.
	LintFullModuleSeconds float64 `json:"lint_full_module_seconds,omitempty"`
	// LintAnalyzerSeconds maps analyzer name to its solo mean seconds
	// over the pre-loaded module, splitting the full-pass budget.
	LintAnalyzerSeconds map[string]float64 `json:"lint_analyzer_seconds,omitempty"`
}

// ratioSpecs collects repeated -ratio name=NUM/DEN flags.
type ratioSpecs map[string][2]string

func (r ratioSpecs) String() string {
	parts := make([]string, 0, len(r))
	for name, op := range r {
		parts = append(parts, name+"="+op[0]+"/"+op[1])
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (r ratioSpecs) Set(s string) error {
	name, expr, ok := strings.Cut(s, "=")
	num, den, ok2 := strings.Cut(expr, "/")
	if !ok || !ok2 || name == "" || num == "" || den == "" {
		return fmt.Errorf("want name=NUM/DEN, got %q", s)
	}
	r[name] = [2]string{num, den}
	return nil
}

// assertMax collects repeated -assert-max name=value flags.
type assertMax map[string]float64

func (a assertMax) String() string {
	parts := make([]string, 0, len(a))
	for k, v := range a {
		parts = append(parts, fmt.Sprintf("%s=%g", k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (a assertMax) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	max, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("bad bound in %q: %v", s, err)
	}
	a[name] = max
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is main with injectable streams and an exit code: 0 ok, 1 bad
// input, missing ratio operand or failed assertion, 2 bad flags.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ratios := ratioSpecs{}
	asserts := assertMax{}
	fs.Var(ratios, "ratio",
		"write NUM's ns/op over DEN's under ratios.name; repeatable, e.g. -ratio stageworkers1_over_scheduled=StudyRunStageWorkers1/StudyRunScheduled")
	fs.Var(asserts, "assert-max",
		"fail (exit 1) when the named metric exceeds value; repeatable, e.g. -assert-max lint_full_module_seconds=9.84")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchjson: "+format+"\n", a...)
		return 1
	}

	out, err := parse(stdin)
	if err != nil {
		return fail("%v", err)
	}
	metrics := map[string]float64{"lint_full_module_seconds": out.LintFullModuleSeconds}
	for k, v := range out.LintAnalyzerSeconds {
		metrics["lint_analyzer_seconds/"+k] = v
	}
	for name, op := range ratios {
		num, okN := out.Benchmarks[op[0]]
		den, okD := out.Benchmarks[op[1]]
		if !okN || !okD || den.NsPerOp <= 0 || den.MinNsPerOp <= 0 {
			return fail("-ratio %s: benchmarks %s and %s must both be in the input", name, op[0], op[1])
		}
		if out.Ratios == nil {
			out.Ratios = map[string]ratio{}
		}
		r := ratio{Mean: num.NsPerOp / den.NsPerOp, Min: num.MinNsPerOp / den.MinNsPerOp}
		out.Ratios[name] = r
		metrics[name+"/mean"], metrics[name+"/min"] = r.Mean, r.Min
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fail("%v", err)
	}

	names := make([]string, 0, len(asserts))
	for name := range asserts {
		names = append(names, name)
	}
	sort.Strings(names)
	code := 0
	for _, name := range names {
		got, max := metrics[name], asserts[name]
		switch {
		case got == 0:
			code = fail("-assert-max %s: metric absent from input", name)
		case got > max:
			code = fail("%s = %.3f exceeds budget %.3f", name, got, max)
		default:
			fmt.Fprintf(stderr, "benchjson: %s = %.3f within budget %.3f\n", name, got, max)
		}
	}
	return code
}

// parse folds a `go test -bench` transcript into per-benchmark mean, min
// and run count, plus the host header lines and the lint metrics.
func parse(r io.Reader) (*output, error) {
	out := &output{Benchmarks: map[string]bench{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		key, val, _ := strings.Cut(line, ":")
		switch key {
		case "goos":
			out.Goos = strings.TrimSpace(val)
		case "goarch":
			out.Goarch = strings.TrimSpace(val)
		case "cpu":
			out.CPU = strings.TrimSpace(val)
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		b := out.Benchmarks[m[1]]
		if b.Runs == 0 || ns < b.MinNsPerOp {
			b.MinNsPerOp = ns
		}
		b.NsPerOp += ns // a sum until every line is in
		b.Runs++
		out.Benchmarks[m[1]] = b
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	for name, b := range out.Benchmarks {
		b.NsPerOp /= float64(b.Runs)
		out.Benchmarks[name] = b
		if name == "LintModule" {
			out.LintFullModuleSeconds = b.NsPerOp / 1e9
		}
		if analyzer, ok := strings.CutPrefix(name, "LintAnalyzer/"); ok {
			if out.LintAnalyzerSeconds == nil {
				out.LintAnalyzerSeconds = map[string]float64{}
			}
			out.LintAnalyzerSeconds[analyzer] = b.NsPerOp / 1e9
		}
	}
	return out, nil
}
