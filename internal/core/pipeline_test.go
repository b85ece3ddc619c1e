package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"pornweb/internal/blocklist"
	"pornweb/internal/webgen"
)

// TestCancelStopsBetweenStages pins the pipeline's mid-run cancellation
// promise: with one stage worker, a context cancelled as the corpus stage
// finishes lets no further stage start, and Run's error wraps
// context.Canceled with no partial Results.
func TestCancelStopsBetweenStages(t *testing.T) {
	st, err := NewStudy(Config{
		Params:       webgen.Params{Seed: 11, Scale: 0.004},
		Workers:      1,
		StageWorkers: 1,
		Timeout:      5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started []string
	opts := st.stageOptions()
	record := opts.OnStageDone
	opts.OnStageStart = func(name string) { started = append(started, name) }
	opts.OnStageDone = func(name string, took time.Duration, err error) {
		record(name, took, err)
		if name == "corpus" {
			cancel()
		}
	}
	res, err := st.runPipeline(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runPipeline error = %v, want context.Canceled in its chain", err)
	}
	if res != nil {
		t.Fatalf("runPipeline returned partial results after cancellation")
	}
	if want := []string{"corpus"}; !reflect.DeepEqual(started, want) {
		t.Fatalf("stages started = %v, want only %v", started, want)
	}
}

// TestScheduledCancellation: a pre-cancelled parent context means no
// stage runs at all and Run returns the context's error.
func TestScheduledCancellation(t *testing.T) {
	st, err := NewStudy(Config{
		Params:  webgen.Params{Seed: 11, Scale: 0.01},
		Workers: 2,
		Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := st.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("scheduled Run error = %v, want context.Canceled in its chain", err)
	}
	if res != nil {
		t.Fatalf("scheduled Run returned partial results after cancellation")
	}
}

// geoTestStudy builds the minimal Study AnalyzeGeoFrom and
// AnalyzeRobustness need: a country list, an empty blocklist and an empty
// ecosystem (no server, no crawls).
func geoTestStudy(countries []string) *Study {
	return &Study{
		Cfg:      Config{Countries: countries},
		Eco:      &webgen.Ecosystem{},
		EasyList: blocklist.Parse("empty", nil),
	}
}

// TestGeoRowOrderCustomCountries is the regression test for the Table 7
// row order: geoOrder maps every non-paper country to the same rank, and
// sort.Slice is unstable, so without the name tie-break a custom country
// list produced rows in a different order run to run.
func TestGeoRowOrderCustomCountries(t *testing.T) {
	countries := []string{"ES", "FR", "DE", "AT"}
	st := geoTestStudy(countries)
	crawls := map[string]*CrawlResult{}
	for _, c := range countries {
		crawls[c] = &CrawlResult{Country: c}
	}

	// The paper vantage (ES) sorts first; the non-paper countries follow
	// alphabetically. Repeat to catch order instability.
	want := []string{"ES", "AT", "DE", "FR"}
	for i := 0; i < 20; i++ {
		res := st.AnalyzeGeoFrom(nil, crawls)
		if len(res.Rows) != len(want) {
			t.Fatalf("got %d rows, want %d", len(res.Rows), len(want))
		}
		for j, w := range want {
			if res.Rows[j].Country != w {
				t.Fatalf("iteration %d: row %d = %q, want %q", i, j, res.Rows[j].Country, w)
			}
		}
	}

	// The robustness summary shares the ordering.
	rob := st.AnalyzeRobustness(crawls)
	for j, w := range want {
		if rob.Rows[j].Country != w {
			t.Fatalf("robustness row %d = %q, want %q", j, rob.Rows[j].Country, w)
		}
	}
}

// TestGeoLess pins the comparator itself: paper order first, then the
// alphabetical tie-break.
func TestGeoLess(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"US", "UK", true},  // paper order, not alphabetical
		{"SG", "AT", true},  // paper vantage before any custom country
		{"AT", "FR", true},  // custom countries alphabetical
		{"FR", "AT", false}, // ...and antisymmetric
		{"DE", "DE", false}, // irreflexive
		{"ES", "US", false}, // ES is third in the paper's table
	}
	for _, c := range cases {
		if got := geoLess(c.a, c.b); got != c.want {
			t.Errorf("geoLess(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
