package main

import (
	"context"
	"crypto/tls"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pornweb/internal/blocklist"
	"pornweb/internal/browser"
	"pornweb/internal/core"
	"pornweb/internal/crawler"
	"pornweb/internal/domain"
	"pornweb/internal/htmlx"
	"pornweb/internal/jsvm"
	"pornweb/internal/obs"
	"pornweb/internal/shard"
	"pornweb/internal/store"
	"pornweb/internal/webgen"
	"pornweb/internal/webserver"
)

// tailSamples is how many samples a latency pass collects (repeating
// its inputs when it has fewer): enough for a p99 with minTail samples
// beyond it.
const tailSamples = 1000

// minPassTime is how long the throughput passes (parse, match, codec)
// repeat their inputs, so the clock's resolution never dominates.
const minPassTime = 250 * time.Millisecond

// layers collects the per-layer metrics of the traced pass.
type layers struct {
	metrics map[string]metric
	sums    map[string]summary
	notes   []string
}

func (l *layers) set(name string, v float64, unit string) {
	l.metrics[name] = metric{Value: v, Unit: unit}
}

// dist records a latency distribution as name.p50 and name.p99 under
// the percentile rule; when too few samples leave no p99 with minTail
// samples beyond it, name.p99 carries the highest percentile that has
// them and a note says so.
func (l *layers) dist(name string, xs []float64, unit string) {
	s := summarize(xs)
	l.sums[name] = s
	l.set(name+".p50", s.Median, unit)
	l.set(name+".p99", s.tailOrMax(), unit)
	if s.TailPct != 99 {
		l.notes = append(l.notes, fmt.Sprintf("%s.p99 reports %s", name, s))
	}
}

// tracePass runs the workload's repetitions with the study's own
// tracing on, then times the calls into each layer's public functions
// from outside the program, one layer at a time.
func tracePass(ctx context.Context, fx *fixture, out *output) error {
	l := &layers{metrics: map[string]metric{}, sums: map[string]summary{}}
	if err := traceRuns(ctx, fx, l, out); err != nil {
		return err
	}
	// The layer passes run on a plain Study of the workload: same
	// corpus, faults and retry policy, no store and no shards (their
	// layers get passes of their own).
	lw := fx.w
	lw.store, lw.shards = storeNone, 0
	cfg := lw.config(fx.seed, "")
	runtime.GC()
	if err := traceSetup(ctx, cfg, fx.seed, l); err != nil {
		return err
	}
	runtime.GC()
	if err := traceLayers(ctx, cfg, filepath.Join(fx.dir, "trace-store"), l); err != nil {
		return err
	}
	out.result.Metrics = l.metrics
	out.detail.Summaries = l.sums
	out.detail.Notes = l.notes
	return nil
}

// traceRuns makes two untraced repetitions and one with the study's
// tracing on (every flight event kept and streamed, stage spans and
// metrics read back). trace.overhead compares their Run times; the
// scheduler's stage histograms come from the traced one.
func traceRuns(ctx context.Context, fx *fixture, l *layers, out *output) error {
	var reps []rep
	for i := 0; i < 2; i++ {
		r, err := fx.runRep(ctx, nil)
		if err != nil {
			return err
		}
		reps = append(reps, r)
	}
	// A failed Run (a failed repetition) leaves the snapshot empty.
	snap := &obs.Snapshot{}
	var manifestS float64
	traced, err := fx.runRep(ctx, func(st *core.Study, res *core.Results) {
		snap = st.Metrics.Snapshot()
		manifestS = timeIt(func() {
			if _, err := st.BuildManifest(res); err != nil {
				l.notes = append(l.notes, "BuildManifest: "+err.Error())
			}
		})
	})
	if err != nil {
		return err
	}
	reps = append(reps, traced)
	out.detail.Reps = reps
	tally(reps, out)

	l.set("trace.overhead", traced.Study/median([]float64{reps[0].Study, reps[1].Study}), "ratio")
	l.set("provenance.build_manifest_s", manifestS, "s")
	l.set("provenance.distinct_manifests", float64(out.detail.DistinctManifests), "count")
	out.detail.VisitFailRatio = failRatio(reps)
	l.set("core.visit_fail_ratio", out.detail.VisitFailRatio, "ratio")
	busy := histSum(snap, "study_stage_seconds")
	l.set("sched.busy_s", busy, "s")
	l.set("sched.queue_wait_s", histSum(snap, "study_stage_wait_seconds"), "s")
	l.set("sched.parallelism", ratio(busy, traced.Study), "ratio")
	l.set("webserver.certs_minted", counterSum(snap, "webserver_certs_minted_total"), "count")
	l.set("webserver.faults_injected", counterSum(snap, "webserver_faults_injected_total"), "count")
	return nil
}

// traceSetup times what NewStudy spends most of its set-up on: the
// ecosystem generator and the server start, then the server's TLS
// handshakes cold, warm and under contention.
func traceSetup(ctx context.Context, cfg core.Config, seed uint64, l *layers) error {
	var gen, start []float64
	var eco *webgen.Ecosystem
	for i := 0; i < 3; i++ {
		gen = append(gen, timeIt(func() { eco = webgen.Generate(cfg.Params) }))
		var srv *webserver.Server
		var err error
		start = append(start, timeIt(func() { srv, err = webserver.Start(eco, webserver.WithMetrics(obs.NewRegistry())) }))
		if err != nil {
			return fmt.Errorf("webserver.Start: %w", err)
		}
		srv.Close()
	}
	l.set("webgen.generate_s", median(gen), "s")
	l.set("webserver.start_s", median(start), "s")

	hosts := httpsHosts(eco, seed, tailSamples)
	srv, err := webserver.Start(eco, webserver.WithMetrics(obs.NewRegistry()))
	if err != nil {
		return fmt.Errorf("webserver.Start: %w", err)
	}
	cold, coldFail := handshakes(ctx, srv, hosts, 1)
	warm, warmFail := handshakes(ctx, srv, hosts, 1)
	srv.Close()
	srv, err = webserver.Start(eco, webserver.WithMetrics(obs.NewRegistry()))
	if err != nil {
		return fmt.Errorf("webserver.Start: %w", err)
	}
	contended, contFail := handshakes(ctx, srv, hosts, runtime.NumCPU())
	srv.Close()
	l.dist("webserver.handshake_cold_ms", cold, "ms")
	l.dist("webserver.handshake_warm_ms", warm, "ms")
	l.dist("webserver.handshake_contended_ms", contended, "ms")
	if n := coldFail + warmFail + contFail; n > 0 {
		l.notes = append(l.notes, fmt.Sprintf("%d of %d handshakes failed and are not timed", n, 3*len(hosts)))
	}
	return nil
}

// httpsHosts draws up to n TLS-capable hosts of the ecosystem in a
// seeded order.
func httpsHosts(eco *webgen.Ecosystem, seed uint64, n int) []string {
	var hosts []string
	for _, h := range eco.AllHosts() {
		if eco.HTTPSCapable(h) {
			hosts = append(hosts, h)
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(hosts), func(i, j int) { hosts[i], hosts[j] = hosts[j], hosts[i] })
	if len(hosts) > n {
		hosts = hosts[:n]
	}
	return hosts
}

// handshakes dials every host through the server's resolver and
// completes a TLS handshake, from the given number of concurrent
// clients, returning the successful handshakes' times in ms.
func handshakes(ctx context.Context, srv *webserver.Server, hosts []string, clients int) ([]float64, int) {
	ms := make([]float64, len(hosts))
	var failed atomic.Int64
	each(len(hosts), clients, func(i int) {
		t := time.Now()
		conn, err := srv.DialContext(ctx, "tcp", hosts[i]+":443")
		if err != nil {
			failed.Add(1)
			ms[i] = -1
			return
		}
		tc := tls.Client(conn, &tls.Config{ServerName: hosts[i], RootCAs: srv.CertPool()})
		err = tc.HandshakeContext(ctx)
		ms[i] = msSince(t)
		tc.Close()
		if err != nil {
			failed.Add(1)
			ms[i] = -1
		}
	})
	return dropNegative(ms), int(failed.Load())
}

// traceLayers runs the passes that need a live Study: corpus, crawl
// stages, analyses, crawler, browser, parser, script engine,
// blocklist, shard and store (in storeDir).
func traceLayers(ctx context.Context, cfg core.Config, storeDir string, l *layers) error {
	st, err := core.NewStudy(cfg)
	if err != nil {
		return err
	}
	defer st.Close()
	var corpus *core.Corpus
	l.set("core.corpus_s", timeIt(func() { corpus, err = st.CompileCorpus(ctx) }), "s")
	if err != nil {
		return err
	}
	porn := corpus.Porn

	crawls, ref, interactive, err := traceCrawls(ctx, st, cfg, corpus, l)
	if err != nil {
		return err
	}
	traceAnalyses(st, crawls, ref, interactive, l)

	bodies, records, err := traceFetchAndVisit(ctx, cfg, porn, l)
	if err != nil {
		return err
	}
	sess, err := newSession(st, cfg, "crawl")
	if err != nil {
		return err
	}
	traceParse(bodies, l)
	traceScripts(fetchScripts(ctx, sess, bodies), l)
	traceMatch(st.EasyList, records, l)

	entries, err := traceShards(ctx, st, porn, l)
	if err != nil {
		return err
	}
	return traceStore(st, cfg, entries, storeDir, l)
}

// traceCrawls times the porn-ES crawl stage at the workload's 8 crawl
// workers and again on a one-worker Study (core.crawl_scaling), the
// interactive crawl, and makes the other crawls the analyses need: the
// porn corpus from every vantage country, by country, and the reference
// corpus from Spain.
func traceCrawls(ctx context.Context, st *core.Study, cfg core.Config, corpus *core.Corpus, l *layers) (
	map[string]*core.CrawlResult, *core.CrawlResult, map[string]*browser.InteractiveVisit, error) {
	porn := corpus.Porn
	crawls := map[string]*core.CrawlResult{}
	var err error
	var es *core.CrawlResult
	t8 := timeIt(func() { es, err = st.Crawl(ctx, porn, "ES") })
	if err != nil {
		return nil, nil, nil, err
	}
	crawls["ES"] = es
	l.set("core.crawl_visits_per_s", float64(len(porn))/t8, "1/s")

	one := cfg
	one.Workers = 1
	st1, err := core.NewStudy(one)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := st1.CompileCorpus(ctx); err != nil {
		st1.Close()
		return nil, nil, nil, err
	}
	t1 := timeIt(func() { _, err = st1.Crawl(ctx, porn, "ES") })
	st1.Close()
	if err != nil {
		return nil, nil, nil, err
	}
	l.set("core.crawl_scaling", t1/t8, "ratio")

	var iv map[string]*browser.InteractiveVisit
	l.set("core.interactive_crawl_s", timeIt(func() { iv, err = st.InteractiveCrawl(ctx, porn, "ES") }), "s")
	if err != nil {
		return nil, nil, nil, err
	}
	ref, err := st.Crawl(ctx, corpus.Reference, "ES")
	if err != nil {
		return nil, nil, nil, err
	}
	for _, c := range cfg.Countries {
		if c == "ES" {
			continue
		}
		if crawls[c], err = st.Crawl(ctx, porn, c); err != nil {
			return nil, nil, nil, err
		}
	}
	return crawls, ref, iv, nil
}

// traceAnalyses times each analysis the pipeline runs over the crawls,
// one at a time; core.analyze_total_s is their sum.
func traceAnalyses(st *core.Study, crawls map[string]*core.CrawlResult, ref *core.CrawlResult,
	iv map[string]*browser.InteractiveVisit, l *layers) {
	es := crawls["ES"]
	regularTP := map[string]bool{}
	for _, h := range ref.AllThirdPartyHosts() {
		regularTP[h] = true
	}
	var owners core.OwnerResult
	analyses := []struct {
		name string
		fn   func()
	}{
		{"organizations", func() { st.AnalyzeOrganizations(es, ref, 19) }},
		{"policies", func() { st.AnalyzePolicies(iv, st.TopTrackingSites(es, 25), es.ThirdPartyHostsBySite()) }},
		{"owners", func() { owners = st.AnalyzeOwners(es, iv, 15) }},
		{"third-parties", func() {
			st.AnalyzeThirdParties(es, ref)
			st.AnalyzePopularityIntervals(es)
			st.SharedAcrossAllIntervals(es)
		}},
		{"cookies", func() { st.AnalyzeCookies(es, regularTP) }},
		{"cookie-sync", func() { st.AnalyzeCookieSync(es, st.SyncEdgeThreshold()) }},
		{"geo", func() { st.AnalyzeGeoFrom(regularTP, crawls) }},
		{"banners", func() { st.AnalyzeBanners(es); st.AnalyzeBanners(crawls["US"]) }},
		{"blocking", func() { st.AnalyzeBlocking(es) }},
		{"chains", func() { st.AnalyzeInclusionChains(es) }},
		{"validation", func() { st.ValidateAgainstTruth(es, iv, owners) }},
		{"fingerprinting", func() { st.AnalyzeFingerprinting(es, regularTP) }},
	}
	total := 0.0
	for _, a := range analyses {
		s := timeIt(a.fn)
		total += s
		l.set("core.analyze."+a.name+"_s", s, "s")
	}
	l.set("core.analyze_total_s", total, "s")
}

// traceFetchAndVisit times the browser's visits and Session.FetchPage
// over the porn corpus, repeating them with fresh sessions until each
// distribution has tailSamples samples. It runs on a Study of its own:
// the fault injector's transient bursts live in the server and are
// spent by whichever requests reach a host first, so only a fresh
// server shows the crawler the faults a study's first crawl meets. The
// first round's cold visits therefore go first, and their request
// records, with the landing pages the fetches return, are what the
// function returns.
func traceFetchAndVisit(ctx context.Context, cfg core.Config, porn []string, l *layers) (
	map[string]string, []crawler.Record, error) {
	st, err := core.NewStudy(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	rounds := (tailSamples + len(porn) - 1) / len(porn)
	clients := runtime.NumCPU()
	bodies := map[string]string{}
	var bodyMu sync.Mutex
	var fetchMS, coldMS, warmMS, interMS []float64
	var records []crawler.Record
	var allocBytes uint64
	var visits int
	for r := 0; r < rounds; r++ {
		sess, err := newSession(st, cfg, "crawl")
		if err != nil {
			return nil, nil, err
		}
		b := browser.New(sess)
		b.Rank = st.Rank.BaseRank
		runtime.GC()
		alloc0 := totalAlloc()
		coldMS = append(coldMS, timeEach(len(porn), clients, func(i int) { b.Visit(ctx, porn[i]) })...)
		allocBytes += totalAlloc() - alloc0
		visits += len(porn)
		if r == 0 {
			records = sess.Log()
		}
		warmMS = append(warmMS, timeEach(len(porn), clients, func(i int) { b.Visit(ctx, porn[i]) })...)

		isess, err := newSession(st, cfg, "policy")
		if err != nil {
			return nil, nil, err
		}
		ib := browser.New(isess)
		ib.Rank = st.Rank.BaseRank
		interMS = append(interMS, timeEach(len(porn), clients, func(i int) { ib.VisitInteractive(ctx, porn[i]) })...)

		if sess, err = newSession(st, cfg, "crawl"); err != nil {
			return nil, nil, err
		}
		ms := make([]float64, len(porn))
		each(len(porn), clients, func(i int) {
			t := time.Now()
			res, _, err := sess.FetchPage(ctx, porn[i], "/")
			ms[i] = msSince(t)
			if err == nil && r == 0 {
				bodyMu.Lock()
				bodies[porn[i]] = res.Body
				bodyMu.Unlock()
			}
		})
		fetchMS = append(fetchMS, ms...)
	}
	l.dist("crawler.fetch_ms", fetchMS, "ms")
	l.dist("browser.visit_ms", coldMS, "ms")
	l.dist("browser.visit_warm_ms", warmMS, "ms")
	l.dist("browser.interactive_visit_ms", interMS, "ms")
	l.set("browser.alloc_kb_per_visit", float64(allocBytes)/1024/float64(visits), "KB")

	failed, retries, retried, recovered := requestOutcomes(records)
	l.set("crawler.requests", float64(len(records)), "count")
	l.set("crawler.request_fail_ratio", ratio(float64(failed), float64(len(records))), "ratio")
	l.set("crawler.retries", float64(retries), "count")
	l.set("crawler.retry_recovered_ratio", ratio(float64(recovered), float64(retried)), "ratio")
	return bodies, records, nil
}

// newSession opens a crawl session on the study's server configured as
// the study configures its own.
func newSession(st *core.Study, cfg core.Config, phase string) (*crawler.Session, error) {
	return crawler.NewSession(crawler.Config{
		DialContext: st.Srv.DialContext,
		RootCAs:     st.Srv.CertPool(),
		Country:     "ES",
		Phase:       phase,
		Timeout:     cfg.Timeout,
		Metrics:     obs.NewRegistry(),
		Retry:       cfg.Resilience,
		PageBudget:  cfg.PageBudget,
	})
}

// failedRecord says whether one logged request attempt failed: no
// response, or a server error.
func failedRecord(r crawler.Record) bool {
	return r.Err != "" || r.Status == 0 || r.Status >= 500
}

// requestOutcomes counts the failed request attempts, the retry
// attempts (Attempt > 1), the requests (one URL within one site visit)
// that were retried, and how many of those the last attempt recovered.
func requestOutcomes(records []crawler.Record) (failed, retries, retried, recovered int) {
	type key struct{ site, url string }
	last := map[key]crawler.Record{}
	for _, r := range records {
		if failedRecord(r) {
			failed++
		}
		if r.Attempt > 1 {
			retries++
		}
		k := key{r.SiteHost, r.URL}
		if prev, ok := last[k]; !ok || r.Attempt >= prev.Attempt {
			last[k] = r
		}
	}
	for _, r := range last {
		if r.Attempt > 1 {
			retried++
			if !failedRecord(r) {
				recovered++
			}
		}
	}
	return failed, retries, retried, recovered
}

// fetchScripts collects the scripts of the landing pages: inline ones
// and, fetched once each through sess, the external ones.
func fetchScripts(ctx context.Context, sess *crawler.Session, bodies map[string]string) []script {
	var out []script
	seen := map[string]bool{}
	for _, site := range sortedKeys(bodies) {
		doc := htmlx.Parse(bodies[site])
		for _, src := range doc.InlineScripts() {
			out = append(out, script{"", src})
		}
		for _, r := range doc.Resources() {
			if r.Tag != "script" || seen[r.URL] || !strings.HasPrefix(r.URL, "http") {
				continue
			}
			seen[r.URL] = true
			res, err := sess.Fetch(ctx, r.URL, site, crawler.InitScript, "https://"+site+"/")
			if err == nil && res.Status == 200 {
				out = append(out, script{r.URL, res.Body})
			}
		}
	}
	return out
}

type script struct{ url, src string }

// traceParse measures htmlx.Parse throughput over the landing pages.
func traceParse(bodies map[string]string, l *layers) {
	total, secs := 0, 0.0
	for secs < minPassTime.Seconds() {
		for _, b := range bodies {
			secs += timeIt(func() { htmlx.Parse(b) })
			total += len(b)
		}
		if total == 0 {
			break
		}
	}
	l.set("htmlx.parse_mb_per_s", ratio(float64(total)/(1<<20), secs), "MB/s")
}

// traceScripts times jsvm.Execute per script, repeating the scripts
// until the distribution has tailSamples samples.
func traceScripts(scripts []script, l *layers) {
	env := jsvm.Env{UserAgent: "Mozilla/5.0 (X11; Linux x86_64; rv:52.0) Gecko/20100101 Firefox/52.0",
		ScreenW: 1920, ScreenH: 1080, Language: "en-US"}
	var us []float64
	for len(scripts) > 0 && len(us) < tailSamples {
		for _, s := range scripts {
			t := time.Now()
			jsvm.Execute(s.url, s.src, env)
			us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	l.dist("jsvm.execute_us", us, "us")
}

// traceMatch measures List.Match per logged subresource request.
func traceMatch(list *blocklist.List, records []crawler.Record, l *layers) {
	var reqs []blocklist.Request
	for _, r := range records {
		if r.Initiator == crawler.InitDocument || r.Initiator == crawler.InitRedirect {
			continue
		}
		reqs = append(reqs, blocklist.Request{
			URL:        r.URL,
			Host:       r.Host,
			SiteHost:   r.SiteHost,
			ThirdParty: domain.Base(r.Host) != domain.Base(r.SiteHost),
			Type:       resourceType(r.Initiator),
		})
	}
	n, secs := 0, 0.0
	for len(reqs) > 0 && secs < minPassTime.Seconds() {
		secs += timeIt(func() {
			for _, q := range reqs {
				list.Match(q)
			}
		})
		n += len(reqs)
	}
	l.set("blocklist.match_ns", ratio(secs*1e9, float64(n)), "ns")
}

// resourceType maps a crawl initiator to the blocker's resource type,
// as the blocking analysis does.
func resourceType(init crawler.Initiator) blocklist.ResourceType {
	switch init {
	case crawler.InitScript:
		return blocklist.TypeScript
	case crawler.InitImage:
		return blocklist.TypeImage
	case crawler.InitIframe:
		return blocklist.TypeSubdocument
	case crawler.InitCSS:
		return blocklist.TypeStylesheet
	case crawler.InitJS:
		return blocklist.TypeXHR
	default:
		return blocklist.TypeOther
	}
}

// traceShards runs the porn-ES stage as four shard assignments on two
// workers through Study.RunShard, then times the result codec and the
// merger over the results. It returns the shards' visit entries.
func traceShards(ctx context.Context, st *core.Study, porn []string, l *layers) ([]shard.Entry, error) {
	parts := shard.Partition(porn, 4)
	as := make([]shard.Assignment, len(parts))
	for i, p := range parts {
		as[i] = shard.Assignment{Stage: "crawl/porn-ES", Corpus: "porn", Vantage: "ES", Shard: i, Shards: len(parts),
			Fingerprint: st.Fingerprint(), Seed: int64(st.Cfg.Params.Seed), Hosts: p}
	}
	results := make([]*shard.Result, len(as))
	errs := make([]error, len(as))
	secs := timeEach(len(as), 2, func(i int) { results[i], errs[i] = st.RunShard(ctx, as[i], nil) })
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("RunShard: %w", err)
		}
	}
	for i := range secs {
		secs[i] /= 1e3
	}
	s := summarize(append([]float64(nil), secs...))
	l.sums["shard.run_shard_s"] = s
	l.set("shard.run_shard_s.p50", s.Median, "s")
	l.set("shard.run_shard_s.max", s.Max, "s")
	l.set("shard.skew", ratio(s.Max, mean(secs)), "ratio")

	decoded := make([]*shard.Result, len(results))
	bytes, codecS := 0, 0.0
	for codecS < minPassTime.Seconds() {
		for i, r := range results {
			var err error
			codecS += timeIt(func() {
				var raw []byte
				if raw, err = shard.EncodeResult(r); err == nil {
					bytes += len(raw)
					decoded[i], err = shard.DecodeResult(raw)
				}
			})
			if err != nil {
				return nil, fmt.Errorf("shard codec: %w", err)
			}
		}
	}
	l.set("shard.codec_mb_per_s", ratio(float64(bytes)/(1<<20), codecS), "MB/s")

	var mergeErr error
	l.set("shard.merge_s", timeIt(func() {
		m := shard.NewMerger(as)
		for _, r := range decoded {
			if mergeErr = m.Send(r); mergeErr != nil {
				return
			}
		}
		if _, mergeErr = m.Merge(); mergeErr == nil {
			_, mergeErr = m.Finish()
		}
	}), "s")
	if mergeErr != nil {
		return nil, fmt.Errorf("shard merge: %w", mergeErr)
	}
	var entries []shard.Entry
	for _, r := range decoded {
		entries = append(entries, r.Entries...)
	}
	return entries, nil
}

// traceStore appends the shard entries once per vantage country into a
// fresh store, syncing every 16 appends as the study does, then times
// reopening it with Resume.
func traceStore(st *core.Study, cfg core.Config, entries []shard.Entry, dir string, l *layers) error {
	opts := store.Options{Fingerprint: st.Fingerprint(), Seed: int64(cfg.Params.Seed), SyncEvery: 1 << 30}
	lg, err := store.Open(dir, opts)
	if err != nil {
		return err
	}
	var appendUS, syncMS []float64
	n := 0
	for _, c := range cfg.Countries {
		for _, e := range entries {
			k := store.Key{Stage: "crawl/porn-" + c, Corpus: "porn", Vantage: c, Site: e.Site}
			t := time.Now()
			if err := lg.Append(k, e.Raw); err != nil {
				lg.Close()
				return fmt.Errorf("store append: %w", err)
			}
			appendUS = append(appendUS, float64(time.Since(t).Nanoseconds())/1e3)
			if n++; n%16 == 0 {
				t := time.Now()
				if err := lg.Sync(); err != nil {
					lg.Close()
					return fmt.Errorf("store sync: %w", err)
				}
				syncMS = append(syncMS, msSince(t))
			}
		}
	}
	if err := lg.Close(); err != nil {
		return fmt.Errorf("store close: %w", err)
	}
	l.dist("store.append_us", appendUS, "us")
	l.dist("store.sync_ms", syncMS, "ms")
	l.set("store.bytes_per_visit", ratio(float64(dirBytes(dir)), float64(n)), "B")

	opts.Resume = true
	var reopened *store.Log
	secs := timeIt(func() { reopened, err = store.Open(dir, opts) })
	if err != nil {
		return fmt.Errorf("store replay: %w", err)
	}
	if got := reopened.Len(); got != n {
		l.notes = append(l.notes, fmt.Sprintf("store replay found %d of %d entries", got, n))
	}
	if err := reopened.Close(); err != nil {
		return fmt.Errorf("store close: %w", err)
	}
	l.set("store.replay_visits_per_s", ratio(float64(n), secs), "1/s")
	return os.RemoveAll(dir)
}

func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// histSum adds up a histogram family's sums over all its series.
func histSum(s *obs.Snapshot, name string) float64 {
	total := 0.0
	for _, p := range s.Points {
		if p.Name == name && p.Kind == "histogram" {
			total += p.Value
		}
	}
	return total
}

// counterSum adds up a counter family over all its series.
func counterSum(s *obs.Snapshot, name string) float64 {
	total := 0.0
	for _, p := range s.Points {
		if p.Name == name && p.Kind == "counter" {
			total += float64(p.Count)
		}
	}
	return total
}

// each runs fn(i) for every i in [0, n) on up to clients goroutines,
// never more than nproc, and returns once all calls have.
func each(n, clients int, fn func(i int)) {
	if clients > runtime.NumCPU() {
		clients = runtime.NumCPU()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// timeEach is each, returning every call's wall time in ms.
func timeEach(n, clients int, fn func(i int)) []float64 {
	ms := make([]float64, n)
	each(n, clients, func(i int) {
		t := time.Now()
		fn(i)
		ms[i] = msSince(t)
	})
	return ms
}

func timeIt(fn func()) float64 {
	t := time.Now()
	fn()
	return time.Since(t).Seconds()
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func dropNegative(xs []float64) []float64 {
	out := xs[:0]
	for _, x := range xs {
		if x >= 0 {
			out = append(out, x)
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
