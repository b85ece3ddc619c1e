// Package sched is a small deterministic DAG scheduler for pipeline
// stages. A Graph is built by declaring named stages with their
// dependencies and a closure; Run executes the graph topologically over a
// bounded worker pool, so independent stages (the study's vantage crawls
// and analyses) overlap while every dependency edge is honoured.
//
// The contract mirrors OpenWPM's task manager: work is expressed as an
// explicit dependency graph, parallelism is a tuning knob rather than a
// correctness concern, and a failing stage fails the whole run fast —
// not-yet-started dependents are cancelled while already-running stages
// drain. Cycles and unknown dependencies are rejected before anything
// runs.
//
// Every stage feeds the study's observability: run time lands in the
// study_stage_seconds histogram, time spent queued behind busy workers in
// study_stage_wait_seconds, the number of concurrently running stages in
// the study_stages_inflight gauge, and each stage opens a stage/<name>
// span under the context's tracer.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"pornweb/internal/obs"
)

// stage is one declared node of the graph.
type stage struct {
	name string
	deps []string
	fn   func(context.Context) error
}

// Graph is a mutable set of named stages. Build it with Add/MustAdd, then
// execute with Run. A Graph is not safe for concurrent mutation and a
// single Run at a time.
type Graph struct {
	stages []stage
	index  map[string]int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{index: map[string]int{}}
}

// Add declares a stage. Dependencies may name stages that are added
// later; Run validates the complete graph. Adding a duplicate name, an
// empty name or a nil closure is an error.
func (g *Graph) Add(name string, fn func(context.Context) error, deps ...string) error {
	if name == "" {
		return fmt.Errorf("sched: empty stage name")
	}
	if fn == nil {
		return fmt.Errorf("sched: stage %q has no function", name)
	}
	if _, dup := g.index[name]; dup {
		return fmt.Errorf("sched: duplicate stage %q", name)
	}
	g.index[name] = len(g.stages)
	g.stages = append(g.stages, stage{name: name, deps: deps, fn: fn})
	return nil
}

// MustAdd is Add for statically-known graphs, where a bad declaration is a
// programmer error.
func (g *Graph) MustAdd(name string, fn func(context.Context) error, deps ...string) {
	if err := g.Add(name, fn, deps...); err != nil {
		panic(err)
	}
}

// Len returns the number of declared stages.
func (g *Graph) Len() int { return len(g.stages) }

// Dependencies returns the declared dependency edges: stage name to its
// (copied) dependency list. It exposes the graph's shape so callers can
// assert the wiring matches an expected DAG, or record it as provenance.
func (g *Graph) Dependencies() map[string][]string {
	out := make(map[string][]string, len(g.stages))
	for _, s := range g.stages {
		out[s.name] = append([]string(nil), s.deps...)
	}
	return out
}

// StageError wraps a stage closure's error with the stage that produced
// it; errors.Is/As reach the cause through Unwrap.
type StageError struct {
	Stage string
	Err   error
}

func (e *StageError) Error() string { return fmt.Sprintf("sched: stage %q: %v", e.Stage, e.Err) }

// Unwrap returns the stage's underlying error.
func (e *StageError) Unwrap() error { return e.Err }

// Options tunes one Run.
type Options struct {
	// Workers bounds how many stages run concurrently; <= 0 uses
	// runtime.NumCPU(). 1 degenerates to a strictly sequential (but still
	// dependency-ordered) execution.
	Workers int
	// Metrics, when non-nil, receives per-stage timings: run time in
	// study_stage_seconds, queue wait in study_stage_wait_seconds, and the
	// study_stages_inflight gauge.
	Metrics *obs.Registry
	// Logger, when non-nil, emits a debug event per completed stage.
	Logger *obs.Logger
	// OnStageStart, when non-nil, is called just before a stage's closure
	// runs, on the worker goroutine about to run it. Skipped stages (run
	// already cancelled) do not fire it. Callbacks may run concurrently
	// when Workers > 1 and must be safe for that.
	OnStageStart func(name string)
	// OnStageDone, when non-nil, is called after every executed stage with
	// its name, run time and error (nil on success). Skipped stages (run
	// already cancelled) do not fire it. Callbacks may run concurrently
	// when Workers > 1 and must be safe for that.
	OnStageDone func(name string, took time.Duration, err error)
}

// validate checks every dependency resolves and the graph is acyclic.
func (g *Graph) validate() error {
	for _, s := range g.stages {
		for _, d := range s.deps {
			if _, ok := g.index[d]; !ok {
				return fmt.Errorf("sched: stage %q depends on unknown stage %q", s.name, d)
			}
			if d == s.name {
				return fmt.Errorf("sched: cycle: %s -> %s", s.name, s.name)
			}
		}
	}
	// Kahn's algorithm; whatever cannot be peeled off sits on a cycle.
	indeg := make([]int, len(g.stages))
	dependents := make([][]int, len(g.stages))
	for i, s := range g.stages {
		for _, d := range s.deps {
			j := g.index[d]
			indeg[i]++
			dependents[j] = append(dependents[j], i)
		}
	}
	queue := make([]int, 0, len(g.stages))
	for i := range g.stages {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	processed := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		processed++
		for _, dep := range dependents[i] {
			if indeg[dep]--; indeg[dep] == 0 {
				queue = append(queue, dep)
			}
		}
	}
	if processed < len(g.stages) {
		return fmt.Errorf("sched: cycle: %s", g.findCycle(indeg))
	}
	return nil
}

// findCycle renders one cycle among the stages Kahn's algorithm could not
// peel off (indeg > 0), for the error message.
func (g *Graph) findCycle(indeg []int) string {
	// Walk dependency edges inside the residual subgraph; it is finite and
	// every residual node has a residual dependency, so the walk must
	// revisit a node — that revisit closes the cycle.
	start := -1
	for i := range g.stages {
		if indeg[i] > 0 {
			start = i
			break
		}
	}
	if start < 0 {
		return "unlocatable"
	}
	seenAt := map[int]int{}
	var path []int
	cur := start
	for {
		if at, seen := seenAt[cur]; seen {
			var names []string
			for _, i := range path[at:] {
				names = append(names, g.stages[i].name)
			}
			names = append(names, g.stages[cur].name)
			return strings.Join(names, " -> ")
		}
		seenAt[cur] = len(path)
		path = append(path, cur)
		next := -1
		for _, d := range g.stages[cur].deps {
			if j := g.index[d]; indeg[j] > 0 {
				next = j
				break
			}
		}
		cur = next
	}
}

// Run executes the graph. Stages whose dependencies have all succeeded are
// dispatched, in declaration order, to a pool of Options.Workers
// goroutines. The first stage error cancels the run's context, prevents
// every not-yet-started stage from running, waits for in-flight stages to
// drain, and is returned wrapped in a *StageError. When the parent context
// is cancelled without any stage failing, Run drains and returns the
// context's error.
func (g *Graph) Run(parent context.Context, opts Options) error {
	if err := g.validate(); err != nil {
		return err
	}
	n := len(g.stages)
	if n == 0 {
		return parent.Err()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	indeg := make([]int, n)
	dependents := make([][]int, n)
	for i, s := range g.stages {
		for _, d := range s.deps {
			j := g.index[d]
			indeg[i]++
			dependents[j] = append(dependents[j], i)
		}
	}

	opts.Metrics.Describe("study_stage_wait_seconds", "Time a runnable stage queued for a scheduler worker.")
	opts.Metrics.Describe("study_stages_inflight", "Pipeline stages currently executing.")
	inflight := opts.Metrics.Gauge("study_stages_inflight")

	type readyItem struct {
		idx int
		at  time.Time // when the stage became runnable
	}
	type doneItem struct {
		idx     int
		err     error
		skipped bool
	}
	// Buffered to n so the coordinator below can enqueue without blocking
	// and workers never block reporting completion.
	ready := make(chan readyItem, n)
	done := make(chan doneItem, n)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ready {
				s := g.stages[r.idx]
				// Fail-fast: once the run is cancelled, queued stages are
				// skipped rather than started.
				if ctx.Err() != nil {
					done <- doneItem{idx: r.idx, skipped: true}
					continue
				}
				opts.Metrics.Histogram("study_stage_wait_seconds", obs.WaitBuckets,
					"stage", s.name).Observe(time.Since(r.at).Seconds())
				inflight.Add(1)
				err := RunStage(ctx, opts, s.name, s.fn)
				inflight.Add(-1)
				done <- doneItem{idx: r.idx, err: err}
			}
		}()
	}

	enqueued := 0
	enqueue := func(i int) {
		enqueued++
		ready <- readyItem{idx: i, at: time.Now()}
	}
	for i := range g.stages {
		if indeg[i] == 0 {
			enqueue(i)
		}
	}

	var firstErr error
	for finished := 0; finished < enqueued; finished++ {
		r := <-done
		if r.err != nil && firstErr == nil {
			firstErr = &StageError{Stage: g.stages[r.idx].name, Err: r.err}
			cancel()
		}
		if firstErr == nil && !r.skipped && r.err == nil {
			for _, dep := range dependents[r.idx] {
				if indeg[dep]--; indeg[dep] == 0 {
					enqueue(dep)
				}
			}
		}
	}
	close(ready)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// No stage failed; if stages went unscheduled the parent context must
	// have been cancelled mid-run.
	return parent.Err()
}

// RunStage runs one pipeline stage with the study's per-stage
// instrumentation: a pprof "stage" label on the calling goroutine (and
// every goroutine the stage spawns), a stage/<name> span under the
// context's tracer, the study_stage_seconds histogram, the
// study_stage_* resource metrics, a debug event, and the Options
// callbacks. Graph.Run calls it for every stage it dispatches; a caller
// that orders stages by hand calls it directly so both schedules are
// instrumented identically. It returns fn's error unwrapped.
func RunStage(ctx context.Context, opts Options, name string, fn func(context.Context) error) error {
	opts.Metrics.Describe("study_stage_seconds", "Pipeline stage run time in seconds.")
	if opts.OnStageStart != nil {
		opts.OnStageStart(name)
	}
	startRes := obs.TakeResourceSnapshot()
	var err error
	var d time.Duration
	// The pprof label makes every CPU sample taken while this stage runs
	// attributable to it by name; cmd/studyprof aggregates the profile on
	// exactly this key. (internal/sched is the one PprofStageForwarders
	// package: the stage names here were declared statically by callers.)
	pprof.Do(ctx, pprof.Labels("stage", name), func(lctx context.Context) {
		sctx, span := obs.StartSpan(lctx, "stage/"+name)
		start := time.Now()
		err = fn(sctx)
		d = time.Since(start)
		span.End()
	})
	opts.Metrics.RecordStageResources(name, startRes, obs.TakeResourceSnapshot())
	opts.Metrics.Histogram("study_stage_seconds", obs.StageBuckets,
		"stage", name).Observe(d.Seconds())
	if opts.Logger != nil {
		opts.Logger.Event(obs.LevelDebug, "stage done",
			"stage", name, "took", d.Round(time.Millisecond), "err", err != nil)
	}
	if opts.OnStageDone != nil {
		opts.OnStageDone(name, d, err)
	}
	return err
}
