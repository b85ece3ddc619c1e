// Schedule-equivalence harness: the DAG scheduler must change wall-clock
// only, never results. The reference schedule is the pipeline graph with
// one stage worker and one crawl worker, so stages and page visits both
// run one at a time; runs that overlap stages and interleave visits must
// reproduce the exact same Results struct and a byte-identical rendered
// report. Run under -race this also shakes out data races between
// concurrently scheduled stages.
package pornweb_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"pornweb/internal/core"
	"pornweb/internal/report"
	"pornweb/internal/webgen"
)

// equivScale keeps the three full pipeline runs affordable in CI while
// staying large enough that registrable-domain collisions between
// long-tail asset hosts occur — scale 0.01 missed the cert-attribution
// tie-break bug that this harness exists to catch.
const equivScale = 0.02

// runPipeline executes the complete study once and renders the full
// report. workers is the crawl parallelism: per-visit cookie jars and
// order-independent analyses make results insensitive to intra-crawl
// visit order, so equivalence must hold even when page visits within a
// stage interleave freely.
func runPipeline(t *testing.T, stageWorkers, workers int) (*core.Results, []byte) {
	t.Helper()
	st, err := core.NewStudy(core.Config{
		Params:       webgen.Params{Seed: 2019, Scale: equivScale},
		Workers:      workers,
		StageWorkers: stageWorkers,
		Timeout:      20 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewStudy: %v", err)
	}
	defer st.Close()
	res, err := st.Run(context.Background())
	if err != nil {
		t.Fatalf("Run(stageWorkers=%d, workers=%d): %v", stageWorkers, workers, err)
	}
	var buf bytes.Buffer
	report.All(&buf, res)
	return res, buf.Bytes()
}

// TestScheduleEquivalence pins the concurrent pipeline to the
// one-at-a-time reference (StageWorkers 1, Workers 1): identical Results
// and byte-identical report for 4 and 16 stage workers at 8 crawl
// workers.
func TestScheduleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline three times; skipped in -short")
	}
	refRes, refReport := runPipeline(t, 1, 1)
	if len(refReport) == 0 {
		t.Fatal("reference schedule rendered an empty report")
	}
	for _, stageWorkers := range []int{4, 16} {
		stageWorkers := stageWorkers
		t.Run(fmt.Sprintf("workers=%d", stageWorkers), func(t *testing.T) {
			res, rep := runPipeline(t, stageWorkers, 8)
			if !bytes.Equal(refReport, rep) {
				t.Errorf("rendered report diverged from the reference schedule (reference %d bytes, scheduled %d bytes)",
					len(refReport), len(rep))
				logFirstDiff(t, refReport, rep)
			}
			if !reflect.DeepEqual(refRes, res) {
				t.Error("Results struct diverged from the reference schedule")
			}
		})
	}
}

// logFirstDiff reports the first line where two renderings diverge, so a
// failure points at the offending table instead of a byte offset.
func logFirstDiff(t *testing.T, want, got []byte) {
	t.Helper()
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			t.Logf("first divergence at line %d:\n  reference: %q\n  scheduled: %q", i+1, wl[i], gl[i])
			return
		}
	}
	t.Logf("renderings agree for %d lines; lengths differ (reference %d lines, scheduled %d lines)", n, len(wl), len(gl))
}
