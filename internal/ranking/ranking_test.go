package ranking

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	d1 := New(42)
	d2 := New(42)
	for _, s := range []Site{{Host: "a.com", BaseRank: 10}, {Host: "b.com", BaseRank: 50000}} {
		d1.Add(s)
		d2.Add(s)
	}
	for day := 0; day < 10; day++ {
		r1, p1 := d1.RankOn("a.com", day)
		r2, p2 := d2.RankOn("a.com", day)
		if r1 != r2 || p1 != p2 {
			t.Fatalf("day %d: (%d,%v) != (%d,%v)", day, r1, p1, r2, p2)
		}
	}
}

func TestSeedChangesRanks(t *testing.T) {
	d1, d2 := New(1), New(2)
	d1.Add(Site{Host: "a.com", BaseRank: 5000})
	d2.Add(Site{Host: "a.com", BaseRank: 5000})
	same := 0
	for day := 0; day < 50; day++ {
		r1, _ := d1.RankOn("a.com", day)
		r2, _ := d2.RankOn("a.com", day)
		if r1 == r2 {
			same++
		}
	}
	if same > 45 {
		t.Errorf("different seeds produced %d/50 identical ranks", same)
	}
}

func TestTopSiteAlwaysPresent(t *testing.T) {
	d := New(7)
	d.Add(Site{Host: "pornhub.com", BaseRank: 22})
	st := d.StatsFor("pornhub.com")
	if st.DaysPresent != Days {
		t.Errorf("top site present %d days, want %d", st.DaysPresent, Days)
	}
	if st.Best < 1 || st.Best > 1000 {
		t.Errorf("best rank = %d, want within top-1k", st.Best)
	}
	if st.Median < st.Best {
		t.Errorf("median %d < best %d", st.Median, st.Best)
	}
}

func TestTailSiteIntermittent(t *testing.T) {
	d := New(7)
	d.Add(Site{Host: "obscure.porn", BaseRank: 900_000, Volatility: 1.0})
	st := d.StatsFor("obscure.porn")
	if st.DaysPresent == 0 || st.DaysPresent == Days {
		t.Errorf("tail site present %d days, want intermittent", st.DaysPresent)
	}
	if st.Presence <= 0 || st.Presence >= 1 {
		t.Errorf("presence = %f, want strictly between 0 and 1", st.Presence)
	}
}

func TestUnknownHostAbsent(t *testing.T) {
	d := New(1)
	if _, present := d.RankOn("nope.example", 0); present {
		t.Error("unknown host must be absent")
	}
	st := d.StatsFor("nope.example")
	if st.Best != 0 || st.DaysPresent != 0 {
		t.Errorf("unknown stats = %+v", st)
	}
}

func TestAllStatsOrdering(t *testing.T) {
	d := New(3)
	d.Add(Site{Host: "big.com", BaseRank: 10})
	d.Add(Site{Host: "mid.com", BaseRank: 10_000})
	d.Add(Site{Host: "tail.com", BaseRank: 3_000_000, Volatility: 0.1}) // never present
	all := d.AllStats()
	if len(all) != 3 {
		t.Fatalf("AllStats len = %d", len(all))
	}
	if all[0].Host != "big.com" {
		t.Errorf("first = %q, want big.com", all[0].Host)
	}
	if all[2].Host != "tail.com" || all[2].Best != 0 {
		t.Errorf("absent site should sort last: %+v", all[2])
	}
}

func TestSearchKeywords(t *testing.T) {
	d := New(1)
	for _, h := range []string{"pornhub.com", "youtube.com", "sexygames.net", "news.org"} {
		d.Add(Site{Host: h, BaseRank: 100})
	}
	got := d.SearchKeywords([]string{"porn", "tube", "sex"})
	want := map[string]bool{"pornhub.com": true, "youtube.com": true, "sexygames.net": true}
	if len(got) != len(want) {
		t.Fatalf("SearchKeywords = %v", got)
	}
	for _, h := range got {
		if !want[h] {
			t.Errorf("unexpected hit %q", h)
		}
	}
}

func TestIntervalOf(t *testing.T) {
	cases := []struct {
		rank int
		want Interval
	}{
		{1, IntervalTop1K}, {1000, IntervalTop1K},
		{1001, Interval1K10K}, {10000, Interval1K10K},
		{10001, Interval10K100K}, {100000, Interval10K100K},
		{100001, Interval100KUp}, {0, Interval100KUp},
	}
	for _, c := range cases {
		if got := IntervalOf(c.rank); got != c.want {
			t.Errorf("IntervalOf(%d) = %v, want %v", c.rank, got, c.want)
		}
	}
}

func TestIntervalString(t *testing.T) {
	if IntervalTop1K.String() != "0 — 1k" || Interval100KUp.String() != "100k+" {
		t.Error("Interval.String mismatch")
	}
}

func TestRankBoundsProperty(t *testing.T) {
	d := New(99)
	d.Add(Site{Host: "x.com", BaseRank: 500})
	f := func(day uint16) bool {
		r, present := d.RankOn("x.com", int(day)%Days)
		if !present {
			return r == 0
		}
		return r >= 1 && r <= Top1M
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddOverwrites(t *testing.T) {
	d := New(1)
	d.Add(Site{Host: "A.com", BaseRank: 10})
	d.Add(Site{Host: "a.com", BaseRank: 20})
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1 (case-insensitive overwrite)", d.Len())
	}
}

func TestHostsSorted(t *testing.T) {
	d := New(1)
	d.Add(Site{Host: "b.com", BaseRank: 1})
	d.Add(Site{Host: "a.com", BaseRank: 1})
	hs := d.Hosts()
	if len(hs) != 2 || hs[0] != "a.com" || hs[1] != "b.com" {
		t.Errorf("Hosts = %v", hs)
	}
}

func TestMedianRankGrowsWithBase(t *testing.T) {
	d := New(5)
	d.Add(Site{Host: "top.com", BaseRank: 100})
	d.Add(Site{Host: "tail.com", BaseRank: 200_000})
	top, tail := d.StatsFor("top.com"), d.StatsFor("tail.com")
	if top.Median >= tail.Median {
		t.Errorf("median(top)=%d should be < median(tail)=%d", top.Median, tail.Median)
	}
}

// freshStats recomputes a host's summary from RankOn alone.
func freshStats(d *Dataset, host string) Stats {
	st := Stats{Host: host}
	var ranks []int
	for day := 0; day < Days; day++ {
		if r, ok := d.RankOn(host, day); ok {
			ranks = append(ranks, r)
		}
	}
	st.DaysPresent = len(ranks)
	st.Presence = float64(len(ranks)) / float64(Days)
	if len(ranks) > 0 {
		sort.Ints(ranks)
		st.Best, st.Median = ranks[0], ranks[len(ranks)/2]
	}
	return st
}

// TestStatsForMemoized asks for every host from several goroutines at
// once (run it under -race): each memoized summary must equal a fresh
// computation, on first and repeated requests, whatever the case of the
// query. Re-adding a host replaces its summary.
func TestStatsForMemoized(t *testing.T) {
	d := New(9)
	for i := 0; i < 200; i++ {
		d.Add(Site{Host: fmt.Sprintf("site%d.com", i), BaseRank: 1 + i*i*37})
	}
	hosts := append(d.Hosts(), "unknown.example")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				for i := range hosts {
					h := hosts[(i+g*25)%len(hosts)]
					if got, want := d.StatsFor(h), freshStats(d, h); got != want {
						t.Errorf("StatsFor(%q) = %+v, want %+v", h, got, want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := d.StatsFor("SITE7.com"), freshStats(d, "site7.com"); got != want {
		t.Errorf("StatsFor(SITE7.com) = %+v, want %+v", got, want)
	}

	before := d.StatsFor("site150.com")
	d.Add(Site{Host: "site150.com", BaseRank: 3})
	if got, want := d.StatsFor("site150.com"), freshStats(d, "site150.com"); got != want || got == before {
		t.Errorf("after re-adding site150.com: StatsFor = %+v, want %+v (was %+v)", got, want, before)
	}
}
