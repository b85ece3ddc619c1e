// Command perfbench is the repository's benchmark of core.NewStudy and
// Study.Run end to end. Run it from the repository root through run.sh,
// which builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload crawl-cold --seed 2019 --seconds 20 --trace 0
//
// With --trace 0 it repeats NewStudy and Study.Run for --seconds, checks
// every repetition's outputs, and prints the end-to-end metrics. With
// --trace 1 it instead times the calls into each layer's public
// functions from outside the program and prints the per-layer metrics.
// The last line of standard output is always one JSON object with the
// keys correct, attempted, failed and metrics; the line before it
// carries the host stamp and the raw samples. README.md documents the
// workloads and metrics.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

//go:embed expected.json
var expectedJSON []byte

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 2019, "workload seed")
	seconds := fs.Int("seconds", 10, "how long to repeat the measured work")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end repetitions")
	work := fs.String("work", ".bench_build/work", "scratch directory for stores and reference runs")
	reference := fs.String("reference", "", "internal: make one reference run of this workload into -work and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := loadExpected(expectedJSON); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: expected.json:", err)
		return 1
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx := context.Background()
	if *reference != "" {
		if err := runReference(ctx, *reference, *seed, *work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: reference run:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	out, err := measure(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(out.detail); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(out.result); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line before the result: where and on what the numbers
// were measured, and the samples behind them.
type detail struct {
	Host     hostStamp `json:"host"`
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Trace    bool      `json:"trace"`
	// Reps holds every end-to-end repetition; Summaries every timing
	// reduced by the percentile rule, with its sample count.
	Reps      []rep              `json:"reps,omitempty"`
	Summaries map[string]summary `json:"summaries,omitempty"`
	// DistinctManifests counts the distinct manifest digests over the
	// repetitions; a deterministic workload has exactly one.
	DistinctManifests int `json:"distinct_manifests"`
	// VisitFailRatio is lost over attempted vantage visits, pooled over
	// the repetitions; the visit_ok_ratio metric is its complement.
	VisitFailRatio float64 `json:"visit_fail_ratio"`
	// Notes explain metrics whose value needs a caveat.
	Notes    []string `json:"notes,omitempty"`
	Problems []string `json:"problems,omitempty"`
}

type output struct {
	detail detail
	result result
}

// measure prepares the workload (untimed), then runs either the
// end-to-end repetitions or the traced per-layer pass.
func measure(ctx context.Context, w workload, seed uint64, d time.Duration, traced bool, dir string) (*output, error) {
	fx, err := prepare(ctx, w, seed, dir)
	if err != nil {
		return nil, err
	}
	out := &output{detail: detail{Host: stamp(seed), Workload: w.name, Seed: seed, Trace: traced}}
	if traced {
		return out, tracePass(ctx, fx, out)
	}
	return out, endToEnd(ctx, fx, d, out)
}

// endToEnd repeats NewStudy plus Study.Run until d has passed (at least
// once) and reports each end-to-end metric's median over the
// repetitions.
func endToEnd(ctx context.Context, fx *fixture, d time.Duration, out *output) error {
	reps, err := repeat(ctx, fx, d)
	if err != nil {
		return err
	}
	out.detail.Reps = reps
	col := func(f func(rep) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	var setups []float64
	for _, r := range reps {
		setups = append(setups, r.Setups...)
	}
	sums := map[string]summary{
		"setup_s":  summarize(setups),
		"study_s":  summarize(col(func(r rep) float64 { return r.Study })),
		"cpu_s":    summarize(col(func(r rep) float64 { return r.CPU })),
		"alloc_mb": summarize(col(func(r rep) float64 { return r.AllocMB })),
	}
	out.detail.Summaries = sums
	out.detail.VisitFailRatio = failRatio(reps)
	res := &out.result
	res.Metrics = map[string]metric{
		"setup_s":        {sums["setup_s"].Median, "s"},
		"study_s":        {sums["study_s"].Median, "s"},
		"cpu_s":          {sums["cpu_s"].Median, "s"},
		"alloc_mb":       {sums["alloc_mb"].Median, "MB"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
		"visit_ok_ratio": {1 - out.detail.VisitFailRatio, "ratio"},
	}
	tally(reps, out)
	return nil
}

// repeat runs repetitions until d has passed, at least one.
func repeat(ctx context.Context, fx *fixture, d time.Duration) ([]rep, error) {
	var reps []rep
	start := time.Now()
	for len(reps) == 0 || time.Since(start) < d {
		r, err := fx.runRep(ctx, nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// tally fills the result's operation counts from the repetitions: each
// repetition is one operation, failed when any check flagged it.
func tally(reps []rep, out *output) {
	digests := map[string]bool{}
	for i, r := range reps {
		out.result.Attempted++
		if len(r.Problems) > 0 {
			out.result.Failed++
			for _, p := range r.Problems {
				out.detail.Problems = append(out.detail.Problems, fmt.Sprintf("rep %d: %s", i, p))
			}
		}
		if r.Digest != "" {
			digests[r.Digest] = true
		}
	}
	out.detail.DistinctManifests = len(digests)
	out.result.Correct = out.result.Failed == 0
	for _, p := range out.detail.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
}

// hostStamp makes a result comparable with results from other runs:
// the machine, the toolchain and the revision it measured.
type hostStamp struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"git_revision"`
	Dirty      string `json:"git_dirty"`
	Seed       uint64 `json:"seed"`
}

// stamp reads the host block. The revision and dirty flag come from the
// version-control stamp the go tool embeds at build time; a build
// outside a git checkout has none and reports "unknown".
func stamp(seed uint64) hostStamp {
	h := hostStamp{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Dirty:      "unknown",
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Dirty = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
