package main

import (
	"strings"
	"testing"

	"pornweb/internal/core"
	"pornweb/internal/provenance"
)

var countries = []string{"ES", "US", "UK", "RU", "IN", "SG"}

// completeManifest builds a manifest with every figure and declared
// stage present.
func completeManifest() *provenance.Manifest {
	m := &provenance.Manifest{
		ConfigFingerprint: "aaaa",
		Stages:            map[string]provenance.StageInfo{},
		Figures:           map[string]provenance.FigureInfo{},
	}
	for _, f := range figures {
		m.Figures[f] = provenance.FigureInfo{Digest: "d-" + f}
	}
	for _, s := range declaredStages(countries) {
		m.Stages[s] = provenance.StageInfo{Records: 1, Digest: "s-" + s}
	}
	return m
}

func TestCompleteManifestPasses(t *testing.T) {
	if len(figures) != 22 {
		t.Fatalf("%d figures listed, the study renders 22", len(figures))
	}
	m := completeManifest()
	if p := checkComplete(m, countries); len(p) != 0 {
		t.Errorf("complete manifest flagged: %v", p)
	}
	if p := compareOutputs(m, completeManifest(), true); len(p) != 0 {
		t.Errorf("equal manifests flagged: %v", p)
	}
}

func TestCheckerFlagsChangedFigureDigest(t *testing.T) {
	got, want := completeManifest(), completeManifest()
	f := got.Figures["table4"]
	f.Digest = "changed"
	got.Figures["table4"] = f
	p := compareOutputs(got, want, false)
	if len(p) != 1 || !strings.Contains(p[0], "table4") {
		t.Errorf("want exactly the table4 digest flagged, got %v", p)
	}
}

func TestCheckerFlagsMissingStage(t *testing.T) {
	m := completeManifest()
	delete(m.Stages, "crawl/geo-RU")
	p := checkComplete(m, countries)
	if len(p) != 1 || !strings.Contains(p[0], "crawl/geo-RU") {
		t.Errorf("want exactly crawl/geo-RU flagged, got %v", p)
	}
	if p := compareOutputs(m, completeManifest(), true); len(p) != 1 {
		t.Errorf("shard-invariance comparison must flag the missing stage once, got %v", p)
	}
}

func TestCheckerIgnoresFingerprintAndStore(t *testing.T) {
	got := completeManifest()
	got.ConfigFingerprint = "bbbb"
	got.Store = &provenance.StoreInfo{Entries: 3, Digest: "x"}
	if p := compareOutputs(got, completeManifest(), true); len(p) != 0 {
		t.Errorf("fingerprint or store block compared: %v", p)
	}
}

func TestCheckerFlagsChangedStageDigest(t *testing.T) {
	got := completeManifest()
	s := got.Stages["crawl/porn-ES"]
	s.Digest = "changed"
	got.Stages["crawl/porn-ES"] = s
	if p := compareOutputs(got, completeManifest(), false); len(p) != 0 {
		t.Errorf("figures-only comparison looked at stages: %v", p)
	}
	if p := compareOutputs(got, completeManifest(), true); len(p) != 1 {
		t.Errorf("want the porn-ES stage flagged, got %v", p)
	}
}

func TestFailureSums(t *testing.T) {
	ok := core.RobustnessResult{
		Rows: []core.CrawlLossRow{
			{Country: "ES", Attempted: 10, Crawled: 7, Failures: map[string]int{"refused": 2, "timeout": 1}},
			{Country: "US", Attempted: 10, Crawled: 10},
		},
		VisitFailures: map[string]int{"refused": 2, "timeout": 1},
	}
	if p := checkFailureSums(ok); len(p) != 0 {
		t.Errorf("consistent taxonomy flagged: %v", p)
	}
	bad := ok
	bad.VisitFailures = map[string]int{"refused": 2}
	if p := checkFailureSums(bad); len(p) != 1 {
		t.Errorf("want the class total flagged, got %v", p)
	}
	bad.Rows = append([]core.CrawlLossRow{{Country: "RU", Attempted: 5, Crawled: 4}}, ok.Rows...)
	if p := checkFailureSums(bad); len(p) != 2 {
		t.Errorf("want the RU row and the class total flagged, got %v", p)
	}
}

func TestDeclaredStages(t *testing.T) {
	stages := declaredStages(countries)
	// corpus + 4 main crawls + 4 age crawls + 4 geo crawls + 20 analyses.
	if len(stages) != 33 {
		t.Errorf("%d declared stages, want 33: %v", len(stages), stages)
	}
}
