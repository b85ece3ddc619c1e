GO ?= go
STATICCHECK_VERSION ?= 2023.1.7

FUZZTIME ?= 10s

.PHONY: all build vet test perfbench benchpair race bench bench-json lintbudget fuzz lint staticcheck determinism crashsafety shardci profile ci

all: vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# perfbench is its own Go module (see perfbench/README.md), so the
# root's ./... never compiles it; vet and test it here so an API change
# in the study cannot silently break the benchmark.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# benchpair measures a change against a base commit by the pairing
# rule: PAIRS pairs of perfbench runs of each workload in WORKLOAD (one
# name or several, space-separated) at SEED, one run on BASE and one on
# the working tree per pair, alternating which side goes first; after
# each workload's pairs, cmd/benchpair prints each end-to-end metric's
# median and quartiles per side, the pairs the change won and a verdict.
# BASE is checked out from its committed files (git archive) into
# $(BENCHPAIR_DIR)/base; each run's output lands in
# $(BENCHPAIR_DIR)/runs/<workload>. Runs last BENCHMARK.json's
# run_seconds (20).
#
#   make benchpair WORKLOAD=crawl-cold PAIRS=10 BASE=HEAD~1 SEED=2019
#   make benchpair WORKLOAD="replay-analyze crawl-cold" PAIRS=3
WORKLOAD ?= crawl-cold
PAIRS ?= 10
BASE ?= HEAD~1
SEED ?= 2019
BENCHPAIR_DIR ?= .benchpair
benchpair:
	rm -rf $(BENCHPAIR_DIR)
	mkdir -p $(BENCHPAIR_DIR)/base
	git archive $(BASE) | tar -x -C $(BENCHPAIR_DIR)/base
	@set -e; change=$$(pwd); base=$$(cd $(BENCHPAIR_DIR)/base && pwd); \
	for w in $(WORKLOAD); do \
		runs=$(BENCHPAIR_DIR)/runs/$$w; mkdir -p $$runs; \
		for i in $$(seq 1 $(PAIRS)); do \
			if [ $$((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi; \
			for side in $$order; do \
				dir=$$change; [ $$side = base ] && dir=$$base; \
				echo "benchpair: $$w pair $$i/$(PAIRS) $$side"; \
				( cd $$dir && bash perfbench/run.sh --workload $$w --seed $(SEED) --seconds 20 --trace 0 ) \
					> $$runs/$$i-$$side.json 2> $$runs/$$i-$$side.err; \
			done; \
		done; \
		echo "benchpair: $$w, seed $(SEED), base $(BASE) vs working tree"; \
		$(GO) run ./cmd/benchpair -benchmark BENCHMARK.json $$runs; \
	done

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-json times each benchmark family and writes one BENCH_*.json per
# family: mean and min ns/op per benchmark plus the ratios declared
# below with benchjson's -ratio name=NUM/DEN (each {"mean", "min"}).
# stageworkers1_over_scheduled > 1 means overlapping stages pays off
# (expect ~1.0 on a single core); the other ratios price one feature
# against the plain scheduled pipeline.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkStudyRun(StageWorkers1|Scheduled)$$' -benchtime=1x -count=3 . \
		| $(GO) run ./cmd/benchjson \
			-ratio stageworkers1_over_scheduled=StudyRunStageWorkers1/StudyRunScheduled > BENCH_pipeline.json
	@cat BENCH_pipeline.json
	$(GO) test -run '^$$' -bench 'BenchmarkFlightVisit|BenchmarkManifestWrite|BenchmarkMultisetHash|BenchmarkDiff' \
		-count=3 ./internal/obs/ ./internal/provenance/ \
		| $(GO) run ./cmd/benchjson \
			-ratio flight_unsampled_over_sampled=FlightVisitUnsampled/FlightVisitSampled > BENCH_obs.json
	@cat BENCH_obs.json
	$(MAKE) lintbudget
	$(GO) test -run '^$$' -bench 'BenchmarkStudyRun(Scheduled|Profiled)$$' -benchtime=1x -count=3 . \
		| $(GO) run ./cmd/benchjson \
			-ratio profile_overhead_profiled_over_scheduled=StudyRunProfiled/StudyRunScheduled > BENCH_prof.json
	@cat BENCH_prof.json
	( $(GO) test -run '^$$' -bench 'BenchmarkStore(Append|Replay)$$' -count=3 ./internal/store/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkStudyRun(Scheduled|StoreBacked)$$' -benchtime=1x -count=3 . ) \
		| $(GO) run ./cmd/benchjson \
			-ratio store_overhead_storebacked_over_scheduled=StudyRunStoreBacked/StudyRunScheduled > BENCH_store.json
	@cat BENCH_store.json
	$(GO) test -run '^$$' -bench 'BenchmarkStudyRun(Scheduled|Sharded[124])$$' -benchtime=1x -count=3 . \
		| $(GO) run ./cmd/benchjson \
			-ratio sharded1_over_scheduled=StudyRunSharded1/StudyRunScheduled \
			-ratio sharded2_over_scheduled=StudyRunSharded2/StudyRunScheduled \
			-ratio sharded4_over_scheduled=StudyRunSharded4/StudyRunScheduled > BENCH_shard.json
	@cat BENCH_shard.json
# The fleet pair runs interleaved in separate processes: back-to-back
# -count=3 in one process lets heap state from one variant bleed into
# the other's timings and bias the on/off ratio.
	for i in 1 2 3; do \
		$(GO) test -run '^$$' -bench 'BenchmarkStudyRunFleetTelemetryOn$$' -benchtime=1x -count=1 .; \
		$(GO) test -run '^$$' -bench 'BenchmarkStudyRunFleetTelemetryOff$$' -benchtime=1x -count=1 .; \
	done | $(GO) run ./cmd/benchjson \
		-ratio fleet_telemetry_on_over_off=StudyRunFleetTelemetryOn/StudyRunFleetTelemetryOff > BENCH_fleet.json
	@cat BENCH_fleet.json

# lintbudget times the studylint suite — one full-module pass plus each
# analyzer solo over the pre-loaded index — writes BENCH_lint.json, and
# fails if the full pass exceeds its wall-clock budget (2x the PR 5
# five-analyzer baseline of ~4.92s), so the always-on lint gate cannot
# quietly eat the CI budget as analyzers accumulate.
lintbudget:
	$(GO) test -run '^$$' -bench 'BenchmarkLint' -benchtime=1x -count=3 ./internal/lint/ \
		| $(GO) run ./cmd/benchjson -assert-max lint_full_module_seconds=9.84 > BENCH_lint.json
	@cat BENCH_lint.json

# fuzz gives each native fuzz target a short budget; failing inputs land
# in testdata/fuzz/ and then fail `make test` forever after.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzParse' -fuzztime $(FUZZTIME) ./internal/blocklist/
	$(GO) test -run '^$$' -fuzz 'FuzzClassify' -fuzztime $(FUZZTIME) ./internal/domain/
	$(GO) test -run '^$$' -fuzz 'FuzzSuppression' -fuzztime $(FUZZTIME) ./internal/lint/
	$(GO) test -run '^$$' -fuzz 'FuzzSchemaParse' -fuzztime $(FUZZTIME) ./internal/lint/
	$(GO) test -run '^$$' -fuzz 'FuzzParse' -fuzztime $(FUZZTIME) ./internal/profparse/
	$(GO) test -run '^$$' -fuzz 'FuzzReplay' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz 'FuzzShardCodec' -fuzztime $(FUZZTIME) ./internal/shard/

# lint runs studylint, the repo's first-party analyzer suite
# (internal/lint): stdlib-only, no module downloads, so unlike
# staticcheck it is an always-on gate even in offline CI. Exits
# nonzero on any unsuppressed finding. -suppressions also audits every
# //studylint:ignore directive and fails on stale ones (directives that
# no longer suppress anything), so dead ignores cannot accumulate.
lint:
	$(GO) run ./cmd/studylint -suppressions

# staticcheck runs via `go run` so nothing is installed into the module.
# The probe distinguishes "cannot fetch the tool" (offline CI, no module
# proxy — skip with a note) from "tool ran and failed" (version or
# toolchain mismatch — fail the build): only download/connectivity
# errors are skippable, everything else surfaces. Real findings still
# fail the build via the second invocation.
staticcheck:
	@probe=$$($(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version 2>&1); \
	status=$$?; \
	if [ $$status -eq 0 ]; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	elif echo "$$probe" | grep -qiE 'dial tcp|proxyconnect|connection refused|i/o timeout|no such host|TLS handshake|could not download|connection reset|unrecognized import path|server misbehaving|404 Not Found|410 Gone'; then \
		echo "staticcheck: cannot fetch tool (offline?); skipping"; \
	else \
		echo "staticcheck: probe failed (not a fetch error):" >&2; \
		echo "$$probe" >&2; \
		exit $$status; \
	fi

# determinism runs the seeded study twice and requires the two run
# manifests to be identical — the provenance system's core promise.
# studydiff exits nonzero naming the earliest diverging pipeline stage
# if any figure drifted, which fails the build.
determinism:
	rm -rf .provgate
	$(GO) run ./cmd/pornstudy -scale 0.004 -seed 2019 -provenance .provgate/a >/dev/null
	$(GO) run ./cmd/pornstudy -scale 0.004 -seed 2019 -provenance .provgate/b >/dev/null
	$(GO) run ./cmd/studydiff .provgate/a .provgate/b
	rm -rf .provgate

# crashsafety proves the durable store's central claim end to end: a
# run killed by a seeded crash at a store append (exit 137, with a torn
# half-written record on disk) and then resumed against the surviving
# directory must produce a manifest byte-identical to an uninterrupted
# run. studydiff checks semantic identity and cmp the exact bytes.
# Runs fault-free: the injector's burst counters live in the server
# process, so only deterministic runs can promise byte equality.
crashsafety:
	rm -rf .crashgate
	mkdir -p .crashgate
	$(GO) build -o .crashgate/pornstudy ./cmd/pornstudy
	.crashgate/pornstudy -scale 0.004 -seed 2019 -store .crashgate/store-a -provenance .crashgate/a >/dev/null
	@.crashgate/pornstudy -scale 0.004 -seed 2019 -store .crashgate/store-b \
		-kill-after-appends 25 -kill-torn >/dev/null 2>&1; \
	status=$$?; \
	if [ $$status -ne 137 ]; then \
		echo "crashsafety: killed run exited $$status, want 137" >&2; exit 1; \
	fi; \
	echo "crashsafety: run killed at append 25 (exit 137), resuming"
	.crashgate/pornstudy -scale 0.004 -seed 2019 -store .crashgate/store-b -resume -provenance .crashgate/b >/dev/null
	$(GO) run ./cmd/studydiff .crashgate/a .crashgate/b
	cmp .crashgate/a/manifest.json .crashgate/b/manifest.json
	rm -rf .crashgate

# shardci proves shard equivalence end to end with real process
# isolation: a serial run and a coordinator + 3 worker processes over
# loopback must produce byte-identical manifest.json files — the
# workers rebuild the same deterministic ecosystem from (seed, config)
# and return each visit in its durable serialized form, so the merge
# reproduces the serial crawl exactly. studydiff checks semantic
# identity (including the shards.json sidecar rules) and cmp the bytes.
# fleetcheck scrapes the coordinator's /fleet, /metrics and /trace
# while the run is live and fails the gate if any registered worker is
# missing from the federated metrics, under-accounted in visits, or
# absent from the merged single-trace-ID fleet trace.
shardci:
	rm -rf .shardgate
	mkdir -p .shardgate
	$(GO) build -o .shardgate/pornstudy ./cmd/pornstudy
	$(GO) build -o .shardgate/fleetcheck ./cmd/fleetcheck
	.shardgate/pornstudy -scale 0.004 -seed 2019 -provenance .shardgate/serial >/dev/null
	@set -e; \
	.shardgate/pornstudy -scale 0.004 -seed 2019 -shards 4 \
		-coordinator-addr 127.0.0.1:19733 -shard-min-workers 3 \
		-metrics-addr 127.0.0.1:19734 \
		-provenance .shardgate/sharded >/dev/null & coord=$$!; \
	.shardgate/fleetcheck -addr 127.0.0.1:19734 -min-workers 3 & check=$$!; \
	.shardgate/pornstudy -worker -coordinator 127.0.0.1:19733 \
		-scale 0.004 -seed 2019 >/dev/null 2>&1 & w1=$$!; \
	.shardgate/pornstudy -worker -coordinator 127.0.0.1:19733 \
		-scale 0.004 -seed 2019 >/dev/null 2>&1 & w2=$$!; \
	.shardgate/pornstudy -worker -coordinator 127.0.0.1:19733 \
		-scale 0.004 -seed 2019 >/dev/null 2>&1 & w3=$$!; \
	wait $$coord; st=$$?; \
	wait $$w1 $$w2 $$w3 2>/dev/null || true; \
	if [ $$st -ne 0 ]; then echo "shardci: coordinator exited $$st" >&2; exit 1; fi; \
	wait $$check; chk=$$?; \
	if [ $$chk -ne 0 ]; then echo "shardci: fleetcheck exited $$chk" >&2; exit 1; fi; \
	echo "shardci: coordinator + 3 workers completed, fleet observability verified"
	$(GO) run ./cmd/studydiff .shardgate/serial .shardgate/sharded
	cmp .shardgate/serial/manifest.json .shardgate/sharded/manifest.json
	rm -rf .shardgate

# profile runs the seeded study under a CPU profile and requires at
# least 90% of samples to be attributable to a named pipeline stage
# (measured headroom: 97-99% at this scale). A drop below the floor
# means a new goroutine family is running outside the stage labels.
profile:
	$(GO) run ./cmd/studyprof -scale 0.004 -seed 2019 -top 3 -min-attrib 0.9

# ci is the full gate: vet, studylint with the suppression audit
# (always-on, offline-safe), the test suite, the perfbench module's vet
# and tests, the race detector, a short
# fuzz pass, the run-manifest determinism gate, the kill/resume
# crash-safety gate, the coordinator/worker shard-equivalence gate, the
# profile-attribution gate, the lint wall-clock budget, and staticcheck
# when the environment can reach it.
ci: vet lint test perfbench race fuzz determinism crashsafety shardci profile lintbudget staticcheck
