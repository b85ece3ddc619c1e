package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pornweb/internal/provenance"
	"pornweb/internal/webgen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// provCfg is the fixed small-study config every provenance test runs:
// small enough to run several full studies per test binary, with a
// non-default country list so the geo fan-out stages exist. stageWorkers
// 0 keeps the default (NumCPU).
func provCfg(seed uint64, stageWorkers int) Config {
	return Config{
		Params:       webgen.Params{Seed: seed, Scale: 0.004},
		Countries:    []string{"ES", "US", "RU"},
		Workers:      4,
		StageWorkers: stageWorkers,
		Timeout:      5 * time.Second,
	}
}

// runManifest runs one full study and returns its manifest plus the exact
// bytes manifest.json would contain.
func runManifest(t *testing.T, cfg Config) (*provenance.Manifest, []byte) {
	t.Helper()
	st, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	if st.Provenance == nil {
		t.Fatal("Run completed but Study.Provenance is nil")
	}
	dir := t.TempDir()
	if err := st.WriteProvenance(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "runinfo.json")); err != nil {
		t.Fatalf("runinfo.json sidecar missing: %v", err)
	}
	return st.Provenance, raw
}

// TestManifestDeterministic is the determinism gate in miniature: two
// independent studies with the same results config — one running its
// stages one at a time, one at the default stage-worker count — must
// write byte-identical manifest.json files. The schedule changes
// wall-clock, never provenance.
func TestManifestDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full studies")
	}
	mOne, rawOne := runManifest(t, provCfg(11, 1))
	mDefault, rawDefault := runManifest(t, provCfg(11, 0))
	if !bytes.Equal(rawOne, rawDefault) {
		d := provenance.Diff(mOne, mDefault)
		var buf bytes.Buffer
		d.Format(&buf)
		t.Fatalf("StageWorkers 1 and default manifests differ:\n%s", buf.String())
	}
	if d := provenance.Diff(mOne, mDefault); !d.Identical {
		t.Fatalf("Diff of equal manifests not identical: %+v", d)
	}

	// A perturbed seed must diverge, and the DAG walk must pin the
	// divergence on the earliest stage: the corpus every crawl consumed.
	mOther, _ := runManifest(t, provCfg(13, 1))
	d := provenance.Diff(mOne, mOther)
	if d.Identical {
		t.Fatal("runs with different seeds produced identical manifests")
	}
	if !d.SeedChanged || !d.ConfigChanged {
		t.Errorf("seed perturbation: SeedChanged=%v ConfigChanged=%v, want both true", d.SeedChanged, d.ConfigChanged)
	}
	if want := []string{"corpus"}; !reflect.DeepEqual(d.RootStages, want) {
		t.Errorf("RootStages = %v, want %v", d.RootStages, want)
	}
	for _, fd := range d.Figures {
		if len(fd.EarliestStages) == 0 {
			t.Errorf("figure %s diverged with no earliest stage", fd.Name)
			continue
		}
		if fd.EarliestStages[0] != "corpus" {
			t.Errorf("figure %s earliest stages = %v, want [corpus]", fd.Name, fd.EarliestStages)
		}
	}
}

// TestManifestContents sanity-checks one run's manifest shape: every
// pipeline stage recorded, inputs wired from the DAG, corpora digested,
// every figure present with a stage that exists.
func TestManifestContents(t *testing.T) {
	cfg := provCfg(11, 0)
	m, _ := runManifest(t, cfg)

	if m.Version != provenance.ManifestVersion {
		t.Errorf("Version = %d, want %d", m.Version, provenance.ManifestVersion)
	}
	if m.Seed != 11 || m.Scale != 0.004 {
		t.Errorf("Seed/Scale = %d/%v, want 11/0.004", m.Seed, m.Scale)
	}
	if m.ConfigFingerprint == "" {
		t.Error("empty config fingerprint")
	}
	for _, c := range []string{"porn", "reference"} {
		ci, ok := m.Corpora[c]
		if !ok || ci.Count == 0 || ci.Digest == "" {
			t.Errorf("corpus %s missing or empty: %+v", c, ci)
		}
	}
	for name := range (&Study{Cfg: cfg}).buildPipeline(newPipeState()).Dependencies() {
		info, ok := m.Stages[name]
		if !ok {
			t.Errorf("stage %s missing from manifest", name)
			continue
		}
		if info.Digest == "" {
			t.Errorf("stage %s has no digest", name)
		}
	}
	if got := m.Stages["crawl/porn-ES"].Inputs; !reflect.DeepEqual(got, []string{"corpus"}) {
		t.Errorf("crawl/porn-ES inputs = %v, want [corpus]", got)
	}
	if len(m.Figures) != len(figureSpecs) {
		t.Errorf("manifest has %d figures, want %d", len(m.Figures), len(figureSpecs))
	}
	for name, fi := range m.Figures {
		if len(fi.Stages) == 0 || fi.Digest == "" {
			t.Errorf("figure %s incomplete: %+v", name, fi)
			continue
		}
		if _, ok := m.Stages[fi.Stages[0]]; !ok {
			t.Errorf("figure %s references unknown stage %s", name, fi.Stages[0])
		}
	}
}

// TestManifestGolden compares one fixed run's manifest against the
// checked-in golden file, so any change to an analysis, the digest
// scheme or the manifest schema shows up as a reviewable diff. Regenerate
// with: go test ./internal/core -run TestManifestGolden -update
func TestManifestGolden(t *testing.T) {
	_, raw := runManifest(t, provCfg(11, 1))
	golden := filepath.Join("testdata", "manifest.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(raw, want) {
		a, _ := provenance.LoadManifest(golden)
		var b provenance.Manifest
		dir := t.TempDir()
		path := filepath.Join(dir, "got.json")
		os.WriteFile(path, raw, 0o644)
		if got, err2 := provenance.LoadManifest(path); err2 == nil {
			b = *got
		}
		var buf bytes.Buffer
		provenance.Diff(a, &b).Format(&buf)
		t.Fatalf("manifest drifted from golden (regenerate with -update if intentional):\n%s", buf.String())
	}
}
