package core

import (
	"context"
	"sort"

	"pornweb/internal/attribution"
	"pornweb/internal/domain"
	"pornweb/internal/ranking"
)

// Table2 compares first/third-party and ATS domain populations between the
// porn and regular corpora.
type Table2 struct {
	PornCorpus    int // successfully crawled porn sites
	RegularCorpus int

	PornFirstParty    int // distinct extra first-party FQDNs
	RegularFirstParty int

	PornThirdParty         int
	RegularThirdParty      int
	ThirdPartyIntersection int

	PornATS         int
	RegularATS      int
	ATSIntersection int
}

// isATS reports whether the merged blocklists cover the host at the
// base-FQDN level (the paper's relaxed organization-level matching).
func (st *Study) isATS(host string) bool {
	return st.EasyList.CoversHost(host) || st.EasyList.CoversHost(domain.Base(host))
}

// AnalyzeThirdParties builds Table 2 from the two main crawls.
func (st *Study) AnalyzeThirdParties(porn, regular *CrawlResult) Table2 {
	t := Table2{
		PornCorpus:    len(porn.Crawled),
		RegularCorpus: len(regular.Crawled),
	}
	countFP := func(cr *CrawlResult) int {
		seen := map[string]bool{}
		for _, hosts := range cr.firstPartyExtras() {
			for _, h := range hosts {
				seen[h] = true
			}
		}
		return len(seen)
	}
	t.PornFirstParty = countFP(porn)
	t.RegularFirstParty = countFP(regular)

	pornTP := porn.allThirdPartyHosts()
	regTP := regular.allThirdPartyHosts()
	t.PornThirdParty = len(pornTP)
	t.RegularThirdParty = len(regTP)

	regSet := map[string]bool{}
	for _, h := range regTP {
		regSet[h] = true
	}
	pornATS := map[string]bool{}
	regATS := map[string]bool{}
	for _, h := range pornTP {
		if regSet[h] {
			t.ThirdPartyIntersection++
		}
		if st.isATS(h) {
			pornATS[h] = true
		}
	}
	for _, h := range regTP {
		if st.isATS(h) {
			regATS[h] = true
		}
	}
	t.PornATS = len(pornATS)
	t.RegularATS = len(regATS)
	for h := range pornATS {
		if regATS[h] {
			t.ATSIntersection++
		}
	}
	return t
}

// IntervalRow is one row of Table 3: third-party diversity per popularity
// interval.
type IntervalRow struct {
	Interval   ranking.Interval
	Sites      int
	ThirdParty int // distinct third-party FQDNs on this interval's sites
	UniqueHere int // FQDNs appearing only in this interval
}

// AnalyzePopularityIntervals builds Table 3 from the porn crawl.
func (st *Study) AnalyzePopularityIntervals(porn *CrawlResult) []IntervalRow {
	perSite := porn.thirdPartyHostsBySite()
	bySiteInterval := map[ranking.Interval]map[string]bool{}
	siteCount := map[ranking.Interval]int{}
	for _, site := range porn.Crawled {
		iv := st.interval(site)
		siteCount[iv]++
		if bySiteInterval[iv] == nil {
			bySiteInterval[iv] = map[string]bool{}
		}
		for _, h := range perSite[site] {
			bySiteInterval[iv][h] = true
		}
	}
	// Count in how many intervals each FQDN appears.
	seenIn := map[string]int{}
	for _, hosts := range bySiteInterval {
		for h := range hosts {
			seenIn[h]++
		}
	}
	rows := make([]IntervalRow, 0, int(ranking.NumIntervals))
	for iv := ranking.IntervalTop1K; iv < ranking.NumIntervals; iv++ {
		row := IntervalRow{Interval: iv, Sites: siteCount[iv], ThirdParty: len(bySiteInterval[iv])}
		for h := range bySiteInterval[iv] {
			if seenIn[h] == 1 {
				row.UniqueHere++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// SharedAcrossAllIntervals counts third-party FQDNs present in every
// popularity tier (the paper: only 3%).
func (st *Study) SharedAcrossAllIntervals(porn *CrawlResult) (shared, total int) {
	perSite := porn.thirdPartyHostsBySite()
	byInterval := map[ranking.Interval]map[string]bool{}
	for _, site := range porn.Crawled {
		iv := st.interval(site)
		if byInterval[iv] == nil {
			byInterval[iv] = map[string]bool{}
		}
		for _, h := range perSite[site] {
			byInterval[iv][h] = true
		}
	}
	all := map[string]int{}
	for _, hosts := range byInterval {
		for h := range hosts {
			all[h]++
		}
	}
	for _, n := range all {
		total++
		if n == int(ranking.NumIntervals) {
			shared++
		}
	}
	return shared, total
}

// OrgRow is one bar of Figure 3: an organization's prevalence in each
// corpus.
type OrgRow struct {
	Org         string
	PornPrev    float64
	RegularPrev float64
}

// Attributor builds the three-stage attributor from a crawl's certificate
// observations plus the Disconnect-style seed list.
func (st *Study) Attributor(crs ...*CrawlResult) *attribution.Attributor {
	certOrgs := map[string]string{}
	for _, cr := range crs {
		for h, org := range cr.CertOrgs {
			certOrgs[h] = org
		}
	}
	return &attribution.Attributor{
		Disconnect: st.Eco.DisconnectList(),
		CertOrgs:   certOrgs,
	}
}

// AnalyzeOrganizations builds Figure 3: the top-N third-party
// organizations by porn-corpus prevalence, with their regular-web
// prevalence for comparison. It also returns attribution coverage.
// Certificate information is collected actively (ProbeTLS) for every
// observed third-party FQDN, on top of what the crawls captured passively.
// It probes under context.Background(); AnalyzeOrganizationsContext is
// the cancellable form the pipeline runs.
func (st *Study) AnalyzeOrganizations(porn, regular *CrawlResult, topN int) ([]OrgRow, attribution.Coverage) {
	return st.AnalyzeOrganizationsContext(context.Background(), porn, regular, topN)
}

// AnalyzeOrganizationsContext is AnalyzeOrganizations with its
// certificate probes bound to ctx.
func (st *Study) AnalyzeOrganizationsContext(ctx context.Context, porn, regular *CrawlResult, topN int) ([]OrgRow, attribution.Coverage) {
	attr := st.Attributor(porn, regular)
	probeSet := map[string]bool{}
	for _, h := range porn.allThirdPartyHosts() {
		probeSet[h] = true
	}
	for _, h := range regular.allThirdPartyHosts() {
		probeSet[h] = true
	}
	toProbe := make([]string, 0, len(probeSet))
	for h := range probeSet {
		if _, ok := attr.CertOrgs[h]; !ok {
			toProbe = append(toProbe, h)
		}
	}
	sort.Strings(toProbe)
	for i, p := range st.ProbeTLS(ctx, toProbe) {
		if p.Org != "" {
			attr.CertOrgs[toProbe[i]] = p.Org
		}
	}
	pornPrev := attr.PrevalenceByOrg(porn.thirdPartyHostsBySite())
	regPrev := attr.PrevalenceByOrg(regular.thirdPartyHostsBySite())

	rows := make([]OrgRow, 0, len(pornPrev))
	for org, p := range pornPrev {
		rows = append(rows, OrgRow{Org: org, PornPrev: p, RegularPrev: regPrev[org]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].PornPrev != rows[j].PornPrev {
			return rows[i].PornPrev > rows[j].PornPrev
		}
		return rows[i].Org < rows[j].Org
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	cov := attr.Cover(porn.allThirdPartyHosts())
	return rows, cov
}
