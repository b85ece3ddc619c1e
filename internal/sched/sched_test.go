package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pornweb/internal/obs"
)

func noop(context.Context) error { return nil }

func TestTopologicalOrder(t *testing.T) {
	g := New()
	var mu sync.Mutex
	var order []string
	rec := func(name string) func(context.Context) error {
		return func(context.Context) error {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil
		}
	}
	g.MustAdd("a", rec("a"))
	g.MustAdd("b", rec("b"), "a")
	g.MustAdd("c", rec("c"), "a")
	g.MustAdd("d", rec("d"), "b", "c")
	if err := g.Run(context.Background(), Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if len(order) != 4 {
		t.Fatalf("ran %d stages, want 4: %v", len(order), order)
	}
	for _, edge := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		if pos[edge[0]] > pos[edge[1]] {
			t.Errorf("%s ran after its dependent %s: %v", edge[0], edge[1], order)
		}
	}
}

func TestAddErrors(t *testing.T) {
	g := New()
	if err := g.Add("", noop); err == nil {
		t.Error("empty name accepted")
	}
	if err := g.Add("a", nil); err == nil {
		t.Error("nil fn accepted")
	}
	if err := g.Add("a", noop); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("a", noop); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestUnknownDependency(t *testing.T) {
	g := New()
	g.MustAdd("a", noop, "ghost")
	err := g.Run(context.Background(), Options{})
	if err == nil || !strings.Contains(err.Error(), "unknown stage") {
		t.Fatalf("err = %v, want unknown-dependency error", err)
	}
}

func TestCycleDetection(t *testing.T) {
	g := New()
	ran := atomic.Bool{}
	mark := func(context.Context) error { ran.Store(true); return nil }
	g.MustAdd("root", mark)
	g.MustAdd("a", mark, "c")
	g.MustAdd("b", mark, "a")
	g.MustAdd("c", mark, "b")
	err := g.Run(context.Background(), Options{Workers: 4})
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want cycle error", err)
	}
	// The error names the offending stages, and nothing ran.
	for _, name := range []string{"a", "b", "c"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("cycle error %q does not name stage %q", err, name)
		}
	}
	if ran.Load() {
		t.Error("stages ran despite cycle rejection")
	}
}

func TestSelfCycle(t *testing.T) {
	g := New()
	g.MustAdd("a", noop, "a")
	if err := g.Run(context.Background(), Options{}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want self-cycle error", err)
	}
}

// TestBoundedConcurrency proves no more than Workers stages are ever in
// flight at once.
func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	const stages = 40
	var cur, peak atomic.Int64
	g := New()
	for i := 0; i < stages; i++ {
		g.MustAdd(fmt.Sprintf("s%d", i), func(context.Context) error {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Run(context.Background(), Options{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
	// With plenty of independent stages the pool should actually fill up.
	if p := peak.Load(); p < workers {
		t.Logf("note: peak concurrency %d never reached the %d-worker bound", p, workers)
	}
}

// TestFailFast proves a failing stage prevents not-yet-started dependents
// from running while already-running stages drain to completion.
func TestFailFast(t *testing.T) {
	boom := errors.New("boom")
	slowStarted := make(chan struct{})
	failGate := make(chan struct{})
	var slowFinished, depRan, unrelatedRan atomic.Bool

	g := New()
	g.MustAdd("slow", func(ctx context.Context) error {
		close(slowStarted)
		<-failGate // hold until the failure has happened
		<-ctx.Done()
		slowFinished.Store(true)
		return nil
	})
	g.MustAdd("failing", func(context.Context) error {
		<-slowStarted // both are genuinely in flight
		defer close(failGate)
		return boom
	})
	g.MustAdd("dependent", func(context.Context) error {
		depRan.Store(true)
		return nil
	}, "failing")
	g.MustAdd("unrelated-late", func(context.Context) error {
		unrelatedRan.Store(true)
		return nil
	}, "slow")

	err := g.Run(context.Background(), Options{Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	var se *StageError
	if !errors.As(err, &se) || se.Stage != "failing" {
		t.Fatalf("err = %#v, want StageError for stage failing", err)
	}
	if depRan.Load() {
		t.Error("dependent of the failing stage ran")
	}
	if unrelatedRan.Load() {
		t.Error("stage unlocked after the failure ran")
	}
	if !slowFinished.Load() {
		t.Error("in-flight stage was not drained before Run returned")
	}
}

// TestParentCancellation: cancelling the caller's context mid-run stops
// scheduling and surfaces the context error.
func TestParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	g := New()
	g.MustAdd("first", func(context.Context) error {
		cancel()
		return nil
	})
	g.MustAdd("second", func(context.Context) error {
		ran.Store(true)
		return nil
	}, "first")
	err := g.Run(ctx, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Error("stage ran after parent cancellation")
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Bool
	g := New()
	g.MustAdd("a", func(context.Context) error { ran.Store(true); return nil })
	if err := g.Run(ctx, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Error("stage ran under a dead context")
	}
}

func TestEmptyGraph(t *testing.T) {
	if err := New().Run(context.Background(), Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestMetrics: run/wait histograms and the inflight gauge are fed.
func TestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	g := New()
	g.MustAdd("a", noop)
	g.MustAdd("b", noop, "a")
	if err := g.Run(context.Background(), Options{Workers: 2, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if n := reg.Histogram("study_stage_seconds", obs.StageBuckets, "stage", name).Count(); n != 1 {
			t.Errorf("study_stage_seconds{stage=%q} count = %d, want 1", name, n)
		}
		if n := reg.Histogram("study_stage_wait_seconds", obs.WaitBuckets, "stage", name).Count(); n != 1 {
			t.Errorf("study_stage_wait_seconds{stage=%q} count = %d, want 1", name, n)
		}
	}
	if v := reg.Gauge("study_stages_inflight").Value(); v != 0 {
		t.Errorf("study_stages_inflight = %v after run, want 0", v)
	}
}

// TestRandomizedGraphStress builds a 200-stage random DAG and checks, for
// several worker counts under -race, that every stage runs exactly once
// and strictly after all of its dependencies.
func TestRandomizedGraphStress(t *testing.T) {
	const stages = 200
	rng := rand.New(rand.NewSource(2019))

	type depset [][]int
	deps := make(depset, stages)
	for i := 1; i < stages; i++ {
		// Up to 4 dependencies, always on earlier stages (guarantees a DAG).
		k := rng.Intn(5)
		for j := 0; j < k; j++ {
			deps[i] = append(deps[i], rng.Intn(i))
		}
	}

	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g := New()
			var mu sync.Mutex
			started := make([]time.Time, stages)
			finished := make([]time.Time, stages)
			runs := make([]int, stages)
			for i := 0; i < stages; i++ {
				i := i
				var names []string
				for _, d := range deps[i] {
					names = append(names, fmt.Sprintf("s%d", d))
				}
				g.MustAdd(fmt.Sprintf("s%d", i), func(context.Context) error {
					now := time.Now()
					mu.Lock()
					started[i] = now
					runs[i]++
					mu.Unlock()
					mu.Lock()
					finished[i] = time.Now()
					mu.Unlock()
					return nil
				}, names...)
			}
			if err := g.Run(context.Background(), Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < stages; i++ {
				if runs[i] != 1 {
					t.Fatalf("stage %d ran %d times", i, runs[i])
				}
				for _, d := range deps[i] {
					if started[i].Before(finished[d]) {
						t.Errorf("stage %d started before dependency %d finished", i, d)
					}
				}
			}
		})
	}
}

// TestOnStageDone pins the completion hook: every executed stage fires it
// exactly once with a non-negative duration and its error, and stages
// skipped by fail-fast do not fire it at all.
func TestOnStageDone(t *testing.T) {
	g := New()
	boom := errors.New("boom")
	g.MustAdd("a", noop)
	g.MustAdd("b", func(context.Context) error { return boom }, "a")
	g.MustAdd("c", noop, "b") // never runs: b fails first

	var mu sync.Mutex
	got := map[string]error{}
	err := g.Run(context.Background(), Options{
		Workers: 1,
		OnStageDone: func(name string, took time.Duration, err error) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := got[name]; dup {
				t.Errorf("stage %s fired OnStageDone twice", name)
			}
			if took < 0 {
				t.Errorf("stage %s reported negative duration %v", name, took)
			}
			got[name] = err
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	if len(got) != 2 {
		t.Fatalf("OnStageDone fired for %v, want exactly a and b", got)
	}
	if got["a"] != nil {
		t.Errorf("stage a reported error %v, want nil", got["a"])
	}
	if !errors.Is(got["b"], boom) {
		t.Errorf("stage b reported error %v, want %v", got["b"], boom)
	}
	if _, ok := got["c"]; ok {
		t.Error("skipped stage c fired OnStageDone")
	}
}

// TestDependencies pins the graph introspection the provenance layer
// publishes: every stage with a defensive copy of its declared deps.
func TestDependencies(t *testing.T) {
	g := New()
	g.MustAdd("a", noop)
	g.MustAdd("b", noop, "a")
	g.MustAdd("c", noop, "a", "b")

	deps := g.Dependencies()
	if len(deps) != 3 {
		t.Fatalf("Dependencies has %d entries, want 3", len(deps))
	}
	if len(deps["a"]) != 0 {
		t.Errorf("a deps = %v, want none", deps["a"])
	}
	if len(deps["b"]) != 1 || deps["b"][0] != "a" {
		t.Errorf("b deps = %v, want [a]", deps["b"])
	}
	if len(deps["c"]) != 2 {
		t.Errorf("c deps = %v, want [a b]", deps["c"])
	}

	// Mutating the returned slices must not corrupt the graph.
	deps["c"][0] = "mutated"
	if again := g.Dependencies(); again["c"][0] != "a" {
		t.Error("Dependencies returned a live reference to internal state")
	}
}

// TestStageLabels pins the resource-attribution contract: every stage
// closure runs under a pprof label stage=<name> — on its context and,
// because Run uses pprof.Do, on the worker goroutine itself, so CPU
// samples taken during the stage (and in any goroutine it spawns,
// which inherits the label set) are attributable by cmd/studyprof.
// Goroutine-label inheritance itself is runtime behaviour only
// observable in a profile; the studyprof integration test covers it.
func TestStageLabels(t *testing.T) {
	g := New()
	var mu sync.Mutex
	seen := map[string]string{}
	record := func(name string) func(context.Context) error {
		return func(ctx context.Context) error {
			v, _ := pprof.Label(ctx, "stage")
			mu.Lock()
			seen[name] = v
			mu.Unlock()
			return nil
		}
	}
	g.MustAdd("corpus", record("corpus"))
	g.MustAdd("crawl/porn-ES", record("crawl/porn-ES"), "corpus")
	if err := g.Run(context.Background(), Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"corpus", "crawl/porn-ES"} {
		if seen[name] != name {
			t.Errorf("stage %q ran with ctx label %q, want its own name", name, seen[name])
		}
	}
}

// TestOnStageStart mirrors TestOnStageDone for the start hook: it fires
// once per executed stage and never for skipped ones.
func TestOnStageStart(t *testing.T) {
	g := New()
	boom := errors.New("boom")
	g.MustAdd("a", noop)
	g.MustAdd("b", func(context.Context) error { return boom }, "a")
	g.MustAdd("c", noop, "b") // skipped: b fails first

	var mu sync.Mutex
	var started []string
	err := g.Run(context.Background(), Options{
		Workers: 1,
		OnStageStart: func(name string) {
			mu.Lock()
			started = append(started, name)
			mu.Unlock()
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	sort.Strings(started)
	if strings.Join(started, ",") != "a,b" {
		t.Errorf("OnStageStart fired for %v, want exactly [a b]", started)
	}
}

// TestStageResourceMetrics checks the scheduler brackets every stage
// with resource snapshots feeding the study_stage_* metrics.
func TestStageResourceMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	g := New()
	g.MustAdd("a", func(context.Context) error {
		sink := make([][]byte, 0, 256)
		for i := 0; i < 256; i++ {
			sink = append(sink, make([]byte, 4096))
		}
		_ = sink
		return nil
	})
	if err := g.Run(context.Background(), Options{Workers: 1, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := reg.WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	exp := buf.String()
	for _, name := range []string{
		`study_stage_cpu_seconds{stage="a"}`,
		`study_stage_alloc_bytes_total{stage="a"}`,
		`study_stage_goroutines_peak{stage="a"}`,
	} {
		if !strings.Contains(exp, name) {
			t.Errorf("exposition missing %s", name)
		}
	}
	if v := reg.Counter("study_stage_alloc_bytes_total", "stage", "a").Value(); v == 0 {
		t.Error("stage allocated ~1MiB but study_stage_alloc_bytes_total is zero")
	}
}

// TestRunStageDirect: the per-stage wrapper on its own applies the
// instrumentation every dispatched stage gets — pprof label, stage span,
// run-time histogram and OnStageDone — and returns the stage's error
// unwrapped (Graph.Run wraps it in a StageError).
func TestRunStageDirect(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(8)
	boom := errors.New("boom")
	var label string
	var doneErr error
	err := runStage(obs.WithTracer(context.Background(), tr), Options{
		Metrics:     reg,
		OnStageDone: func(_ string, _ time.Duration, err error) { doneErr = err },
	}, "analysis/x", func(ctx context.Context) error {
		label, _ = pprof.Label(ctx, "stage")
		return boom
	})
	if err != boom || doneErr != boom {
		t.Fatalf("runStage error = %v, OnStageDone saw %v, want %v unwrapped", err, doneErr, boom)
	}
	if label != "analysis/x" {
		t.Errorf("stage ran with label %q, want analysis/x", label)
	}
	if spans := tr.Recent(); len(spans) != 1 || spans[0].Name != "stage/analysis/x" {
		t.Errorf("spans = %+v, want one stage/analysis/x", spans)
	}
	var buf strings.Builder
	if err := reg.WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `study_stage_seconds_count{stage="analysis/x"} 1`) {
		t.Error("study_stage_seconds has no observation for the stage")
	}
}
