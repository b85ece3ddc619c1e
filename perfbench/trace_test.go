package main

import (
	"testing"

	"pornweb/internal/crawler"
)

func TestRequestOutcomes(t *testing.T) {
	recs := []crawler.Record{
		{SiteHost: "a.com", URL: "https://a.com/", Status: 200},
		// Recovered on the third attempt.
		{SiteHost: "a.com", URL: "https://t.net/x.js", Status: 503, Attempt: 1},
		{SiteHost: "a.com", URL: "https://t.net/x.js", Status: 0, Err: "reset", Attempt: 2},
		{SiteHost: "a.com", URL: "https://t.net/x.js", Status: 200, Attempt: 3},
		// Retried and lost.
		{SiteHost: "b.com", URL: "https://t.net/x.js", Status: 503, Attempt: 1},
		{SiteHost: "b.com", URL: "https://t.net/x.js", Status: 503, Attempt: 2},
		// Failed once, never retried.
		{SiteHost: "b.com", URL: "https://dead.org/", Err: "refused"},
	}
	failed, retries, retried, recovered := requestOutcomes(recs)
	if failed != 5 || retries != 3 || retried != 2 || recovered != 1 {
		t.Errorf("failed, retries, retried, recovered = %d, %d, %d, %d; want 5, 3, 2, 1",
			failed, retries, retried, recovered)
	}
}

func TestEachVisitsEveryIndexOnce(t *testing.T) {
	for _, clients := range []int{1, 2, 64} {
		hits := make([]int, 1000)
		each(len(hits), clients, func(i int) { hits[i]++ })
		for i, n := range hits {
			if n != 1 {
				t.Fatalf("clients=%d: index %d ran %d times", clients, i, n)
			}
		}
	}
	each(0, 4, func(int) { t.Error("fn called with no work") })
}
