package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"pornweb/internal/provenance"
	"pornweb/internal/store"
	"pornweb/internal/webgen"
)

// storeCfg is provCfg with a durable visit store attached.
func storeCfg(seed uint64, dir string) Config {
	return Config{
		Params:    webgen.Params{Seed: seed, Scale: 0.004},
		Countries: []string{"ES", "US", "RU"},
		Workers:   4,
		Timeout:   5 * time.Second,
		StoreDir:  dir,
	}
}

// runToCompletion runs one full study and closes it, returning the
// manifest bytes WriteProvenance would emit. Unlike runManifest it
// closes the study before returning, releasing the store directory for
// a subsequent resume.
func runToCompletion(t *testing.T, cfg Config) (*provenance.Manifest, []byte) {
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
	raw, err := json.MarshalIndent(st.Provenance, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return st.Provenance, append(raw, '\n')
}

// TestResumeEquivalence is the crash-safety property in miniature: a
// store-backed run killed at a seeded append, then resumed against the
// surviving directory, must produce a manifest byte-identical to an
// uninterrupted run — for a kill before the first durable visit, one
// mid-corpus, and one at the last append. A sharded store-backed run
// must match it too, durable log included: the coordinator persists
// the workers' entry bytes, which must be the bytes an unsharded crawl
// writes for the same visits.
func TestResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eight full studies")
	}
	const seed = 11
	base, rawBase := runToCompletion(t, storeCfg(seed, t.TempDir()))
	if base.Store == nil || base.Store.Entries == 0 {
		t.Fatal("store-backed run recorded no store info in its manifest")
	}
	total := base.Store.Entries

	t.Run("sharded", func(t *testing.T) {
		cfg := storeCfg(seed, t.TempDir())
		cfg.Shards = 3
		sharded, rawSharded := runToCompletion(t, cfg)
		if sharded.Store == nil || *sharded.Store != *base.Store {
			t.Fatalf("sharded durable log %+v, unsharded %+v", sharded.Store, *base.Store)
		}
		if !bytes.Equal(rawBase, rawSharded) {
			var buf bytes.Buffer
			provenance.Diff(base, sharded).Format(&buf)
			t.Fatalf("sharded manifest differs from unsharded run:\n%s", buf.String())
		}
	})

	kills := []struct {
		name  string
		after int
		torn  bool
	}{
		{"first-append", 1, false},
		{"mid-corpus", total / 2, true},
		{"last-visit", total, true},
	}
	for _, k := range kills {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()

			// Run 1: the kill poisons the store at the seeded append; the
			// process survives (Exit nil) but nothing persists past the kill,
			// leaving the directory exactly as a crash would.
			cfg := storeCfg(seed, dir)
			cfg.StoreKill = &store.KillSwitch{After: k.after, Torn: k.torn}
			st, err := NewStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Run(t.Context()); err != nil {
				st.Close()
				t.Fatal(err)
			}
			durable := st.VisitStore().Len()
			st.Close()
			if durable >= total {
				t.Fatalf("kill at append %d left %d durable entries, want < %d", k.after, durable, total)
			}

			// Run 2: resume replays the durable prefix and crawls the rest.
			rcfg := storeCfg(seed, dir)
			rcfg.StoreResume = true
			resumed, rawResumed := runToCompletion(t, rcfg)
			if !bytes.Equal(rawBase, rawResumed) {
				var buf bytes.Buffer
				provenance.Diff(base, resumed).Format(&buf)
				t.Fatalf("resumed manifest differs from uninterrupted run:\n%s", buf.String())
			}
			if resumed.Store.Entries != total {
				t.Fatalf("resumed store holds %d entries, want %d", resumed.Store.Entries, total)
			}
		})
	}
}

// TestResumeFingerprintMismatch: pointing a resume at a store written
// under a different configuration must refuse with the typed error
// (which cmd/pornstudy maps to exit code 2), not silently mix runs.
func TestResumeFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStudy(storeCfg(11, dir))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	cfg := storeCfg(12, dir) // different seed -> different fingerprint
	cfg.StoreResume = true
	if _, err := NewStudy(cfg); !errors.Is(err, store.ErrFingerprintMismatch) {
		t.Fatalf("resume with mismatched config: err = %v, want ErrFingerprintMismatch", err)
	}
}

// TestStoreDirRefusedWithoutResume: reusing a store directory without
// asking for a resume is refused rather than silently appended to.
func TestStoreDirRefusedWithoutResume(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStudy(storeCfg(11, dir))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := NewStudy(storeCfg(11, dir)); !errors.Is(err, store.ErrExists) {
		t.Fatalf("fresh open of existing store: err = %v, want ErrExists", err)
	}
}
