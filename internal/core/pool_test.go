package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pornweb/internal/obs"
	"pornweb/internal/store"
	"pornweb/internal/webgen"
)

// TestStudySharesOneConnectionPool pins the study's single client
// connection pool. Visits and stages run one at a time, so one pool
// holds at most one idle connection per tracker host and scheme (a pool
// keys connections by both), and the server closes every other
// connection after its response: once Run returns, the connections the
// server still has open must number no more than the distinct service
// hosts, per scheme, the crawl logs contacted. A pool per crawl session
// would keep a connection to each tracker open per stage.
//
// The connection telemetry is a sidecar: the same study run without a
// caller-supplied registry writes a byte-identical manifest.json.
func TestStudySharesOneConnectionPool(t *testing.T) {
	if testing.Short() {
		t.Skip("two study runs")
	}
	cfg := func(reg *obs.Registry) Config {
		return Config{
			Params:       webgen.Params{Seed: 2019, Scale: 0.004},
			Countries:    []string{"ES", "US", "RU"},
			Workers:      1,
			StageWorkers: 1,
			Timeout:      5 * time.Second,
			Metrics:      reg,
			StoreDir:     t.TempDir(),
		}
	}
	reg := obs.NewRegistry()
	st, err := NewStudy(cfg(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Run(t.Context()); err != nil {
		t.Fatal(err)
	}

	// The crawl logs are the records every durable visit carries.
	services := map[string]bool{}
	err = st.VisitStore().Scan("", func(_ store.Key, raw []byte) error {
		var e visitEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			return err
		}
		for _, r := range e.Records {
			if st.Eco.ServiceByHost[r.Host] != nil {
				services[r.Scheme+"://"+r.Host] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(services) == 0 {
		t.Fatal("the crawl logs contacted no service host")
	}
	// The server notices a client's close on its own goroutine, so give
	// the gauge a moment to settle; idle pooled connections stay open far
	// longer (the pool's idle timeout is 15 s).
	open := reg.Gauge("webserver_connections_open")
	for deadline := time.Now().Add(time.Second); open.Value() > float64(len(services)) && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if v := open.Value(); v > float64(len(services)) {
		t.Errorf("webserver_connections_open = %v after Run, want at most %d (distinct scheme and service host pairs in the crawl logs)", v, len(services))
	}
	if reg.Counter("webserver_connections_total", "listener", "tls").Value() == 0 ||
		reg.Counter("webserver_connections_total", "listener", "plain").Value() == 0 {
		t.Error("webserver_connections_total counted no connection on one of the listeners")
	}

	manifest := func(st *Study) []byte {
		t.Helper()
		dir := t.TempDir()
		if err := st.WriteProvenance(dir); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	bare, err := NewStudy(cfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(manifest(st), manifest(bare)) {
		t.Error("manifest.json differs with and without a caller registry; telemetry leaked into provenance")
	}
}
