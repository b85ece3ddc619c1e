package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"pornweb/internal/core"
	"pornweb/internal/provenance"
	"pornweb/internal/resilience"
	"pornweb/internal/webgen"
)

// storeMode says how a workload's Study uses the durable visit store.
type storeMode int

const (
	storeNone   storeMode = iota
	storeFresh            // a new, empty store directory per repetition
	storeResume           // a copy of the store the set-up filled, resumed
)

// workload is one input set of the benchmark: the Study config every
// repetition runs and what its outputs must equal.
type workload struct {
	name  string
	why   string
	scale float64
	// shards > 1 sends every crawl stage through the shard coordinator
	// with two in-process shard workers.
	shards int
	chaos  bool
	store  storeMode
	// reference names the workload whose run, made once in set-up at the
	// same seed, every repetition's figures must equal ("" for none).
	reference string
}

// workloads is the benchmark's input set. Each exercises layers the
// others leave idle; README.md says which and why.
var workloads = []workload{
	{name: "crawl-cold", scale: 0.03,
		why: "a fresh Study per repetition at scale 0.03: first-contact TLS and cert minting, crawler and browser dominate"},
	{name: "replay-analyze", scale: 0.1, store: storeResume, reference: "replay-analyze",
		why: "resumes a complete scale-0.1 store: corpus, replay fold, every analysis and the manifest, no crawling"},
	{name: "crawl-sharded-durable", scale: 0.03, shards: 4, store: storeFresh, reference: "crawl-cold",
		why: "the crawl-cold work through 4 shards and 2 shard workers into a fresh fsynced store"},
	{name: "crawl-chaos-retry", scale: 0.03, chaos: true,
		why: "default fault profile less its latency band, 3 attempts, breaker threshold 5: retries, backoff, breaker, injector"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is the Study config of one repetition, pinned field by field so
// no program default can move the benchmark. storeDir is ignored by
// workloads without a store.
func (w workload) config(seed uint64, storeDir string) core.Config {
	params := webgen.Params{Seed: seed, Scale: w.scale}
	cfg := core.Config{
		Countries:    append([]string(nil), webgen.Countries...),
		Workers:      8,
		StageWorkers: 2,
		Timeout:      20 * time.Second,
		SpanBuffer:   4096,
		FlightOff:    true,
	}
	if w.chaos {
		// The robustness recipe of EXPERIMENTS.md (pornstudy -faults
		// -retries 3 -breaker-threshold 5) without the latency band. A
		// latency host is slow, never failed, so it exercises no retry;
		// but when the band lands on one of the few trackers most sites
		// embed, every crawl stage slows by half, so Run time would
		// depend on the seed far more than on the code (README.md).
		params.Faults = webgen.DefaultFaultProfile()
		params.Faults.Geo451 = true
		params.Faults.LatencyFrac = 0
		cfg.Resilience = resilience.Policy{
			MaxAttempts:      3,
			Seed:             int64(seed),
			BreakerThreshold: 5,
			BreakerCooldown:  500 * time.Millisecond,
		}
	}
	cfg.Params = params
	if w.shards > 1 {
		cfg.Shards = w.shards
		cfg.ShardWorkers = 2
	}
	if w.store != storeNone {
		cfg.StoreDir = storeDir
		cfg.StoreSyncEvery = 16
		cfg.StoreResume = w.store == storeResume
	}
	return cfg
}

// rep is what one repetition measured and found.
type rep struct {
	// Setups holds every NewStudy time of the repetition.
	Setups    []float64 `json:"setup_s"`
	Study     float64   `json:"study_s"`
	CPU       float64   `json:"cpu_s"`
	AllocMB   float64   `json:"alloc_mb"`
	Lost      int       `json:"lost_visits"`
	Attempted int       `json:"attempted_visits"`
	Digest    string    `json:"manifest_digest"`
	// Problems lists every correctness check the repetition failed.
	Problems []string `json:"problems,omitempty"`
}

// fixture is a workload's untimed set-up: a scratch directory and, for
// workloads that have one, the manifest of the reference run.
type fixture struct {
	w    workload
	seed uint64
	dir  string
	// filled is the store directory the set-up filled (storeResume).
	filled string
	ref    *provenance.Manifest
	// expect is the recorded manifest digest at this seed, if any.
	expect string
	reps   int
}

// prepare makes a workload's set-up. The reference run happens in a
// child process so that its memory never counts in this process's peak
// RSS.
func prepare(ctx context.Context, w workload, seed uint64, dir string) (*fixture, error) {
	fx := &fixture{w: w, seed: seed, dir: dir, expect: expectedDigest(w.name, seed)}
	if w.reference == "" {
		return fx, nil
	}
	refDir := filepath.Join(dir, "reference")
	cmd := exec.CommandContext(ctx, os.Args[0], "-reference", w.reference,
		"-seed", fmt.Sprint(seed), "-work", refDir)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("reference run %s: %w", w.reference, err)
	}
	m, err := provenance.LoadManifest(filepath.Join(refDir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	fx.ref = m
	if w.store == storeResume {
		fx.filled = filepath.Join(refDir, "store")
	}
	return fx, nil
}

// runReference is the child side of prepare: one full Study.Run of the
// named workload's config (with a fresh store where the workload keeps
// one), its manifest written into dir.
func runReference(ctx context.Context, name string, seed uint64, dir string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if w.store == storeResume {
		w.store = storeFresh
	}
	st, err := core.NewStudy(w.config(seed, filepath.Join(dir, "store")))
	if err != nil {
		return err
	}
	defer st.Close()
	if _, err := st.Run(ctx); err != nil {
		return err
	}
	return st.Provenance.Write(filepath.Join(dir, "manifest.json"))
}

// setupSamples is how many times a repetition times NewStudy: set-up
// is short next to Run, so one sample per repetition would leave
// setup_s at the mercy of a single scheduling hiccup.
const setupSamples = 4

// runRep runs one repetition: NewStudy (timed setupSamples times, the
// last study kept) and Study.Run timed apart, then every correctness
// check the workload has. A non-nil inspect makes it a traced
// repetition: the study keeps and streams every flight event, and
// inspect sees the study and its results once Run returns.
func (fx *fixture) runRep(ctx context.Context, inspect func(*core.Study, *core.Results)) (rep, error) {
	w := fx.w
	base := filepath.Join(fx.dir, fmt.Sprintf("rep%d", fx.reps))
	fx.reps++
	if fx.filled != "" {
		if err := copyDir(fx.filled, base); err != nil {
			return rep{}, err
		}
	}
	defer os.RemoveAll(base)
	var r rep
	var st *core.Study
	var cfg core.Config
	for i := 0; i < setupSamples; i++ {
		// A fresh store needs an empty directory per NewStudy; a resumed
		// one is reopened in place, which leaves it as it was.
		dir := base
		if w.store == storeFresh {
			dir = filepath.Join(base, fmt.Sprint(i))
		}
		cfg = w.config(fx.seed, dir)
		if inspect != nil {
			cfg.FlightOff = false
			cfg.FlightSample = 1
			cfg.FlightSink = io.Discard
		}
		runtime.GC()
		t0 := time.Now()
		s, err := core.NewStudy(cfg)
		if err != nil {
			return rep{}, fmt.Errorf("NewStudy: %w", err)
		}
		r.Setups = append(r.Setups, time.Since(t0).Seconds())
		if i < setupSamples-1 {
			s.Close()
			continue
		}
		st = s
	}
	defer st.Close()

	cpu0 := cpuSeconds()
	alloc0 := totalAlloc()
	t1 := time.Now()
	res, err := st.Run(ctx)
	study := time.Since(t1)
	r.Study = study.Seconds()
	r.CPU = cpuSeconds() - cpu0
	r.AllocMB = float64(totalAlloc()-alloc0) / (1 << 20)
	if err != nil {
		r.Problems = append(r.Problems, "Run: "+err.Error())
		return r, nil
	}
	if inspect != nil {
		inspect(st, res)
	}
	r.Digest = manifestDigest(st.Provenance)
	r.Lost, r.Attempted = visitFailures(res.Robustness.Rows)
	r.Problems = append(r.Problems, checkComplete(st.Provenance, cfg.Countries)...)
	r.Problems = append(r.Problems, checkFailureSums(res.Robustness)...)
	if fx.ref != nil {
		r.Problems = append(r.Problems, compareOutputs(st.Provenance, fx.ref, w.shards > 1)...)
	}
	if fx.expect != "" && r.Digest != fx.expect {
		r.Problems = append(r.Problems, fmt.Sprintf("manifest digest %s, recorded %s", r.Digest, fx.expect))
	}
	return r, nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's maximum resident set so far (ru_maxrss is
// in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// copyDir copies the regular files of src (the store keeps no
// subdirectories) into a new directory dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copy %s: %s is not a regular file", src, e.Name())
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// expected holds the manifest digest each fault-free workload produced
// at seed 2019 when the benchmark was recorded (expected.json).
var expected map[string]string

func expectedDigest(workload string, seed uint64) string {
	if seed != 2019 {
		return ""
	}
	return expected[workload]
}

func loadExpected(raw []byte) error {
	return json.Unmarshal(raw, &expected)
}
