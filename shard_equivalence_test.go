// Shard-equivalence harness: sharding a crawl across a worker fleet
// must change wall-clock only, never results. The unsharded run is the
// reference; a sharded run must reproduce the exact same Results
// struct, a byte-identical rendered report, and a byte-identical
// provenance manifest at every shard count — and a fleet that loses a
// worker mid-shard must still converge to the same bytes once the
// coordinator reassigns the lost shard to a survivor.
package pornweb_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"pornweb/internal/core"
	"pornweb/internal/provenance"
	"pornweb/internal/report"
	"pornweb/internal/shard"
	"pornweb/internal/webgen"
)

// shardedRun is everything one pipeline run leaves behind that the
// equivalence claims quantify over.
type shardedRun struct {
	res      *core.Results
	report   []byte
	manifest []byte
	shards   *provenance.ShardManifest
	live     int
	retired  int
}

// runShardedPipeline executes the complete study under cfg and
// collects results, rendered report, manifest bytes (exactly what
// WriteProvenance would emit) and the shard sidecar.
func runShardedPipeline(t *testing.T, cfg core.Config) *shardedRun {
	t.Helper()
	st, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatalf("NewStudy: %v", err)
	}
	defer st.Close()
	res, err := st.Run(context.Background())
	if err != nil {
		t.Fatalf("Run(shards=%d): %v", cfg.Shards, err)
	}
	var buf bytes.Buffer
	report.All(&buf, res)
	raw, err := json.MarshalIndent(st.Provenance, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	r := &shardedRun{
		res:      res,
		report:   buf.Bytes(),
		manifest: append(raw, '\n'),
		shards:   st.ShardManifest(),
	}
	if c := st.Coordinator(); c != nil {
		r.live, r.retired = c.Workers()
	}
	return r
}

// TestShardEquivalence pins the sharded pipeline to the unsharded
// reference at collision-manifesting scale: identical Results,
// byte-identical report and byte-identical manifest for 2, 4 and 8
// shards dispatched across an in-process fleet.
func TestShardEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline four times; skipped in -short")
	}
	base := core.Config{
		Params:  webgen.Params{Seed: 2019, Scale: equivScale},
		Workers: 8,
		Timeout: 20 * time.Second,
	}
	ref := runShardedPipeline(t, base)
	if len(ref.report) == 0 {
		t.Fatal("unsharded reference rendered an empty report")
	}
	if ref.shards != nil {
		t.Fatal("unsharded reference produced a shard manifest")
	}
	for _, shards := range []int{2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := base
			cfg.Shards = shards
			got := runShardedPipeline(t, cfg)
			if !bytes.Equal(ref.manifest, got.manifest) {
				t.Errorf("manifest diverged from unsharded reference (unsharded %d bytes, sharded %d bytes)",
					len(ref.manifest), len(got.manifest))
				logFirstDiff(t, ref.manifest, got.manifest)
			}
			if !bytes.Equal(ref.report, got.report) {
				t.Errorf("rendered report diverged from unsharded reference")
				logFirstDiff(t, ref.report, got.report)
			}
			if !reflect.DeepEqual(ref.res, got.res) {
				t.Error("Results struct diverged from unsharded reference")
			}
			if got.shards == nil || len(got.shards.Stages) == 0 {
				t.Fatal("sharded run recorded no shard manifest")
			}
			for name, s := range got.shards.Stages {
				if s.Shards != shards {
					t.Errorf("stage %s recorded %d shards, want %d", name, s.Shards, shards)
				}
			}
		})
	}
}

// TestWorkerFailureReassignment kills one in-process worker at a
// seeded visit mid-shard: the coordinator must retire it, reassign the
// lost shard to a survivor, and converge to exactly the bytes an
// uninterrupted fleet produces — manifest, shard sidecar and Results.
func TestWorkerFailureReassignment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline twice; skipped in -short")
	}
	base := core.Config{
		Params:       webgen.Params{Seed: 11, Scale: 0.004},
		Countries:    []string{"ES", "US", "RU"},
		Workers:      4,
		Timeout:      5 * time.Second,
		Shards:       3,
		ShardWorkers: 3,
	}
	ref := runShardedPipeline(t, base)
	if ref.retired != 0 || ref.live != 3 {
		t.Fatalf("uninterrupted fleet ended with %d live / %d retired workers, want 3/0",
			ref.live, ref.retired)
	}

	cfg := base
	// Exit is left nil: in-process the "death" is the worker failing
	// every subsequent assignment, which is what a vanished process
	// looks like to the coordinator.
	cfg.ShardKill = &shard.KillSwitch{After: 5}
	got := runShardedPipeline(t, cfg)
	if got.retired != 1 || got.live != 2 {
		t.Fatalf("killed fleet ended with %d live / %d retired workers, want 2/1",
			got.live, got.retired)
	}
	if !bytes.Equal(ref.manifest, got.manifest) {
		t.Error("manifest after worker death diverged from uninterrupted fleet")
		logFirstDiff(t, ref.manifest, got.manifest)
	}
	if !reflect.DeepEqual(ref.res, got.res) {
		t.Error("Results after worker death diverged from uninterrupted fleet")
	}
	if got.shards == nil || ref.shards == nil {
		t.Fatal("sharded runs recorded no shard manifest")
	}
	if stages := provenance.DiffShardStages(ref.shards, got.shards); stages != nil {
		t.Errorf("shard sidecar diverged after worker death in stages %v", stages)
	}
}
